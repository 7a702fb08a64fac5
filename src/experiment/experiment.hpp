// The prepared experiment — component 2 of the paper's benchmark:
//
//   "The experiment part of the benchmark contains prepared scripts with
//    which programs such as race detection and noise can be evaluated as to
//    how frequently they uncover faults, and if they raise false alarms.
//    The analysis of the executions and statistics on the performance of
//    the technologies is also executed with a script.  This script produces
//    a prepared evaluation report [...] with the push of a button."
//
// An ExperimentSpec is (program × tool configuration × N seeded runs); the
// harness runs it, gathering exactly the statistics the paper names: bug-
// finding frequency, true/false alarm counts, runtime overhead, and the
// outcome distribution.  Every bench binary is "a push of the button".
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/stats.hpp"
#include "experiment/tool_stack.hpp"
#include "noise/noise.hpp"
#include "rt/harness.hpp"
#include "suite/program.hpp"

namespace mtt::experiment {

/// Which tools run alongside the program.
struct ToolConfig {
  /// Noise heuristic name ("none", "yield", "sleep", "mixed",
  /// "coverage-directed") or "targeted" (uses noiseTargets).
  std::string noiseName = "none";
  noise::NoiseOptions noiseOpts;
  /// Variable names for TargetedNoise (typically escape-analysis output).
  std::set<std::string> noiseTargets;
  /// Race detectors to attach ("eraser", "djit", "fasttrack", "hybrid").
  std::vector<std::string> detectors;
  /// Attach the potential-deadlock lock-graph detector.
  bool lockGraph = false;
  RuntimeMode mode = RuntimeMode::Controlled;
  /// Controlled-mode policy: "random", "rr", "priority".
  std::string policy = "random";
  /// Coverage model attached to the stack ("" = none; a
  /// coverage::makeCoverage name otherwise).  The per-run snapshot flows
  /// into RunObservation::coverage and from there through the farm pipe and
  /// journal into campaign control (mtt::guide).
  std::string coverage;
  /// Close the coverage universe from the program's static IR model when it
  /// has one (model::contentionTaskUniverse) — the paper's feasibility
  /// filter.  Meaningful for "var-contention"; ignored without an IR model.
  bool coverageClosedUniverse = false;

  std::string label() const;
};

/// The per-run recipe: program, tool stack, seed base, and run-option
/// overrides — the one knob struct consumed by executeRun, the explorer
/// (exploreSpec), and the farm.  Campaign engines vary a single field per
/// run (noise arm, seed) instead of copying three parallel structs.
struct RunSpec {
  std::string programName;
  ToolConfig tool;
  std::uint64_t seedBase = 0;
  /// Overrides the program's default run options when set.
  std::optional<rt::RunOptions> runOptions;
  /// Forces seq_cst semantics on every mem::Atomic operation (the
  /// "does the bug need weak memory?" control; `--seq-cst` on the CLI).
  /// Applied on top of whichever run options are in effect.
  bool forceSeqCst = false;
  /// When set (controlled mode), each run schedules under a fresh policy
  /// from this factory instead of tool.policy — how guide's corpus-seeded
  /// schedule mutators ride an otherwise unchanged spec.  Must be safe to
  /// invoke concurrently.
  std::function<std::unique_ptr<rt::SchedulePolicy>()> policyFactory;
};

/// A RunSpec with a fixed run budget (the classic `--runs N` campaign).
struct ExperimentSpec : RunSpec {
  std::size_t runs = 100;
};

struct ExperimentResult {
  std::string programName;
  std::string toolLabel;
  std::size_t runs = 0;

  /// "how frequently they uncover faults"
  Proportion manifested;
  /// Runs where >= 1 detector raised a warning on an annotated bug site.
  Proportion detectorHit;
  /// "if they raise false alarms"
  std::size_t warnings = 0;
  std::size_t trueWarnings = 0;
  std::size_t falseWarnings = 0;
  std::size_t deadlockPotentials = 0;

  /// "performance overhead"
  OnlineStats wallSeconds;
  OnlineStats events;
  std::uint64_t noiseInjections = 0;

  OutcomeDistribution outcomes;
  std::map<std::string, std::size_t> statusCounts;

  double falseAlarmRate() const {
    return warnings == 0 ? 0.0
                         : static_cast<double>(falseWarnings) /
                               static_cast<double>(warnings);
  }
};

/// Everything observed in one seeded run — the unit of work the farm ships
/// between workers (and across the process-isolation pipe) and folds back
/// into an ExperimentResult.  Folding observations in runIndex order through
/// accumulate() reproduces the serial runExperiment aggregation exactly.
struct RunObservation {
  std::uint64_t runIndex = 0;
  std::uint64_t seed = 0;
  std::string status;  ///< rt::to_string(RunStatus)
  bool manifested = false;
  bool hasDetectors = false;
  bool detectorHit = false;
  std::uint64_t warnings = 0;
  std::uint64_t trueWarnings = 0;
  std::uint64_t falseWarnings = 0;
  std::uint64_t deadlockPotentials = 0;
  double wallSeconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t noiseInjections = 0;
  std::string outcome;
  std::string failureMessage;
  /// Dispatch observability (Hook API v2): listener deliveries this run
  /// (events × subscribed tools) and, when RunOptions::dispatchTiming was
  /// on, mean nanoseconds of tool time per event.
  std::uint64_t dispatchDeliveries = 0;
  double dispatchNsPerEvent = 0.0;
  /// Postmortem scenario dumped by the flight recorder when this run
  /// crashed or timed out under the forked-worker model; empty otherwise.
  /// Replayable (mtt replay / shrink accept it) and ingestible into the
  /// triage corpus.
  std::string postmortemPath;
  /// Per-run coverage delta when the tool config attached a coverage model:
  /// the binary encoding (MSNP1) of the run's coverage::Snapshot.  Rides
  /// hex-encoded in the farm pipe record and the journal, which is how
  /// coverage feedback survives worker isolation and campaign resume.
  std::string coverage;
  /// Farm bookkeeping: how many attempts this run took (retries + 1).
  std::uint32_t attempts = 1;

  /// True for farm-assigned supervision statuses (timeout / crashed /
  /// infra-error): the run produced no usable measurements.
  bool supervised() const {
    return status == "timeout" || status == "crashed" ||
           status == "infra-error";
  }
};

/// Builds a fresh policy from a parameterized policy spec.  Grammar:
///   rr | random[:switch=P] | pct[:d=D,k=K] | pos | priority[:d=D,k=K]
/// where P is a probability, D the PCT priority-change-point count (>= 1)
/// and K the run-length window (0/absent = adaptive).  "priority" is the
/// historical alias of "pct".  Throws std::runtime_error naming the valid
/// policies and the grammar on unknown names or malformed parameters.
std::unique_ptr<rt::SchedulePolicy> makePolicy(const std::string& name);
/// All valid base policy names, for error messages and CLI validation.
std::vector<std::string> policyNames();

/// Throws std::runtime_error on the first unknown policy / noise heuristic /
/// detector name in the config, listing the valid alternatives.  Campaign
/// drivers call this once up front so configuration mistakes fail fast
/// instead of surfacing as per-run infrastructure errors.
void validateToolConfig(const ToolConfig& tool);

/// Builds the owned tool stack a ToolConfig describes, in the canonical
/// order: detectors (config order), then the lock-graph detector if
/// requested, then the noise maker.  Throws std::runtime_error on unknown
/// detector / noise names (validateToolConfig reports the same failures
/// with nicer messages).
ToolStack makeToolStack(const ToolConfig& tool);

/// Executes run `i` of the spec (seed = spec.seedBase + i) on the calling
/// thread, on `tools` and the runtime it keeps (ToolStack::runtime).  The
/// stack is reset() first, so the observation is identical to one on a
/// freshly built stack.  One stack serves one run at a time; runs on
/// distinct stacks may execute concurrently.
RunObservation executeRun(const RunSpec& spec, std::size_t i,
                          ToolStack& tools);

/// Folds one observation into the aggregate (exact serial semantics).
void accumulate(ExperimentResult& result, const RunObservation& obs);

/// Merges a partial result into `into` using the stats merge() operations.
/// Counts are exact; OnlineStats fields are algebraically exact but may
/// differ from a sequential fold in the last float bits (see OnlineStats).
void mergeInto(ExperimentResult& into, const ExperimentResult& part);

/// Runs the experiment serially in-process.  Fully deterministic in
/// controlled mode for a given (spec.seedBase, spec.runs).  For parallel /
/// fault-isolated campaigns, see farm::runExperimentFarm.
ExperimentResult runExperiment(const ExperimentSpec& spec);

struct ReportOptions {
  /// Include wall-clock timing columns.  Disable for byte-stable reports:
  /// in controlled mode everything except wall time is a pure function of
  /// (program, tool config, seedBase, runs), so timing-free reports are
  /// bitwise identical no matter how the campaign was scheduled.
  bool timing = true;
};

/// Renders the standard find-rate comparison table (one row per result).
std::string findRateReport(const std::string& title,
                           const std::vector<ExperimentResult>& results,
                           const ReportOptions& opts = {});

/// Renders the detector-quality table (warnings / true / false / rate).
std::string detectorReport(const std::string& title,
                           const std::vector<ExperimentResult>& results);

}  // namespace mtt::experiment
