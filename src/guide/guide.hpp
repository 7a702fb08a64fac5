// mtt::guide — coverage-guided adaptive campaigns.
//
// The paper's coverage section ends with the operational question: "the
// coverage information could be used to decide how many times each test
// should be executed" (Section 2.2).  This subsystem answers it, and the
// dual question of *which variant* to execute, with a feedback loop over
// the farm:
//
//   1. every run's tool stack carries a coverage model; executeRun extracts
//      a coverage::Snapshot delta that rides in RunObservation::coverage
//      through the worker socket, the JSONL stream, and the journal;
//   2. a UCB1 bandit (src/guide/bandit.hpp) allocates each next run to one
//      of the configured arms — noise heuristic × strength, plus
//      corpus-seeded schedule-mutation arms built from triage witnesses —
//      rewarding arms whose runs still produce novel coverage tasks or
//      novel failure fingerprints;
//   3. a Good–Turing unseen-mass estimate of the coverage growth curve
//      provides the stopping rule: the campaign ends when the budget is
//      exhausted OR coverage has saturated (--saturate), replacing the
//      blind `--runs N` with `--budget N` as an upper bound.
//
// Determinism: every arm decision is appended to a decision log; replaying
// a campaign from its log (GuideOptions::replayLogPath) folds records in
// global run-index order and produces byte-identical timing-free reports
// for ANY --jobs value.  Journaled guided campaigns resume mid-flight: the
// journal supplies finished records, the log supplies their arms, and the
// bandit/coverage state is reconstructed by re-folding — the continuation
// then proceeds exactly as the uninterrupted campaign would have.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "coverage/snapshot.hpp"
#include "farm/farm.hpp"
#include "guide/bandit.hpp"
#include "rt/policy.hpp"

namespace mtt::guide {

/// One bandit arm: a noise heuristic at a strength, optionally under a
/// non-default schedule policy, optionally seeded with a corpus witness
/// schedule that each run replays a random prefix of.
struct Arm {
  std::string noise = "none";
  double strength = 0.25;
  /// Schedule policy of this arm ("" = the base spec's policy).  Adds the
  /// policy dimension to the bandit: arms = policy × noise × strength.
  /// Never set on mutation arms (the witness owns scheduling).
  std::string policy;
  /// Corpus fingerprint of the witness this arm mutates; empty for the
  /// plain heuristic×strength arms.
  std::string mutationFingerprint;
  /// The witness schedule (mutation arms only; shared across runs).
  std::shared_ptr<const rt::Schedule> witness;

  /// Stable single-token label ("mixed@0.25", "pct:d=3/mixed@0.25",
  /// "sleep@0.1~4f2a..."): the identity stored in the decision log and
  /// checked on replay/resume.
  std::string label() const;
};

/// Corpus-seeded schedule mutation: replays a seed-chosen prefix of the
/// witness schedule, then hands over to a RandomPolicy tail — the classic
/// "mutate a known-interesting schedule" move, built from the decision
/// sequences the triage corpus already stores.  Deterministic per seed.
class MutatedReplayPolicy final : public rt::SchedulePolicy {
 public:
  explicit MutatedReplayPolicy(std::shared_ptr<const rt::Schedule> witness)
      : witness_(std::move(witness)) {}
  void onRunStart(std::uint64_t seed) override;
  ThreadId pick(const rt::PickContext& ctx) override;
  /// Weak-memory witnesses carry StorePick decisions; the prefix replays
  /// them at store choice points and abandons the prefix on misalignment,
  /// exactly like pick() does for thread decisions.
  std::uint32_t pickStore(const rt::StorePickContext& ctx) override;
  /// Prefix length chosen for the current run (for tests).
  std::size_t prefixLength() const { return prefixLen_; }

 private:
  std::shared_ptr<const rt::Schedule> witness_;
  std::size_t prefixLen_ = 0;
  std::size_t step_ = 0;
  bool replaying_ = false;
  rt::RandomPolicy tail_;
};

/// One run of a guided batch, as handed to an external BatchRunner: the
/// (global index, seed, noise arm) triple that pins the observation in
/// controlled mode.  Mutation arms carry in-process witness state and are
/// therefore never expressed as a GuideBatchRun (see GuideOptions).
struct GuideBatchRun {
  std::uint64_t index = 0;   ///< campaign-global run index
  std::uint64_t seed = 0;
  std::size_t armIndex = 0;  ///< into the campaign's arm vector
  std::string noiseName;     ///< the arm's heuristic
  double strength = 0.0;     ///< the arm's noise strength
  std::string policy;        ///< the arm's policy ("" = the spec's policy)
};

struct GuideBatchOutcome {
  /// Executed records keyed by campaign-global index.  Missing indices are
  /// treated as a cancelled batch tail (exactly like the in-process farm
  /// path after an early stop).
  std::map<std::uint64_t, experiment::RunObservation> records;
  bool stoppedEarly = false;
  std::size_t retries = 0;
};

/// External batch executor (the fleet coordinator, in practice): receives
/// the batch's assignments and returns their records.  The guide folds the
/// records in global index order regardless of how the runner produced
/// them, so a correct runner yields byte-identical timing-free reports to
/// the in-process farm path.
using BatchRunner =
    std::function<GuideBatchOutcome(const std::vector<GuideBatchRun>&)>;

struct GuideOptions {
  /// Plain arms = policies × heuristics × strengths.
  std::vector<std::string> heuristics{"yield", "sleep", "mixed",
                                      "coverage-directed"};
  std::vector<double> strengths{0.1, 0.25, 0.5};
  /// Schedule-policy arm dimension ("--policies").  Empty = a single
  /// implicit entry for the base spec's policy, so the default arm set is
  /// unchanged.  An entry of "" also means "the base spec's policy";
  /// non-empty entries are parameterized policy specs ("pct:d=3", "pos"),
  /// validated up front.
  std::vector<std::string> policies;
  /// Run budget — the campaign never exceeds it ("--budget N").
  std::uint64_t budget = 200;
  /// Stop early when coverage saturates ("--saturate"): a closed universe
  /// stops only when fully covered; an open universe stops when the
  /// Good–Turing unseen-mass estimate drops below unseenMassThreshold AND
  /// quietRuns consecutive runs produced no reward.
  bool saturate = false;
  std::size_t quietRuns = 24;
  double unseenMassThreshold = 0.02;
  /// UCB1 exploration constant (sqrt(2) is the classic choice).
  double exploration = 1.4142135623730951;
  /// Triage corpus to harvest mutation arms from ("" = no mutation arms).
  std::string corpusDir;
  std::size_t maxMutationArms = 4;
  /// Where arm decisions are appended ("" = journalPath + ".arms" when
  /// journaling, else no log).  Required for resume and replay.
  std::string decisionLogPath;
  /// Replay a previous campaign's decisions instead of consulting the
  /// bandit: with the same log and budget, timing-free reports are
  /// byte-identical for any farm.jobs.
  std::string replayLogPath;
  /// Stop at the first manifested bug / failure fingerprint (mtt hunt).
  bool stopOnFirstFind = false;
  /// Stop once every fingerprint in this set has been observed (bench
  /// harnesses: "reach the fixed campaign's bug set in fewer runs").
  std::set<std::string> targetFingerprints;
  /// When set, batches execute through this runner instead of the
  /// in-process farm (mtt serve --adaptive routes them to fleet workers).
  /// Incompatible with corpus mutation arms: their witness schedules live
  /// in this process and cannot cross the wire, so runGuided throws when
  /// both are configured.
  BatchRunner batchRunner;
  /// Farm passthrough: jobs, runTimeout, model, progress, limits,
  /// stopFlag... journalPath/resume and jsonlPath/jsonlAppend are honored
  /// by the GUIDE, which owns the journal and the JSONL stream so batches
  /// share one file each: records are written as they fold, in global
  /// run-index order, under their campaign-global "run" index (the farm's
  /// per-worker "worker" field has no meaning there and is omitted).
  /// Under WorkerModel::Process every batch runs on one local fleet of
  /// forked workers, created at the first batch that executes a run.
  /// With a batchRunner, jobs still fixes the batch width (and with it the
  /// bandit decision sequence) but spawns no local workers.
  farm::FarmOptions farm;
};

struct ArmReport {
  Arm arm;
  ArmStats stats;
};

struct GuideResult {
  /// Deterministic merged experiment result (timing-free fields are a pure
  /// function of the folded record prefix).
  experiment::ExperimentResult result;
  /// Folded records in global run-index order.  May be shorter than the
  /// number of executed runs when a stopping rule fired mid-batch: records
  /// past the stop index are discarded, which is what keeps the folded
  /// prefix identical for any --jobs.
  std::vector<experiment::RunObservation> records;
  std::vector<ArmReport> arms;
  coverage::Snapshot coverage;       ///< merged over all folded runs
  std::set<std::string> fingerprints;///< distinct failure fingerprints seen
  std::uint64_t budget = 0;
  bool saturated = false;
  std::uint64_t saturatedAtRun = 0;  ///< folded-run count when rule fired
  double unseenMass = 1.0;           ///< final Good–Turing estimate
  bool targetReached = false;        ///< targetFingerprints all observed
  bool stoppedEarly = false;         ///< stopFlag / first-find / target
  bool found = false;                ///< any failure fingerprint observed
  std::uint64_t firstFindRun = 0;    ///< run index of the first failure
  std::uint64_t firstFindSeed = 0;
  std::size_t firstFindArm = 0;
  std::string firstFindFingerprint;
  std::size_t resumed = 0;           ///< records served from the journal
  std::size_t retries = 0;
  std::size_t timeouts = 0;
  std::size_t crashes = 0;
  std::size_t infraErrors = 0;
  double wallSeconds = 0.0;
  std::string decisionLogPath;       ///< log actually written ("" if none)

  std::size_t runs() const { return records.size(); }
};

/// Builds the arm set for a spec: policies × heuristics × strengths, then
/// up to maxMutationArms corpus-seeded mutation arms for base.programName
/// (sorted corpus order; unloadable witnesses are skipped).  Deterministic.
std::vector<Arm> buildArms(const experiment::RunSpec& base,
                           const GuideOptions& opts);

/// The spec an arm's runs execute under: base with the arm's noise
/// heuristic/strength (and policy, when the arm carries one) substituted
/// and, for mutation arms, the MutatedReplayPolicy factory installed.
experiment::RunSpec armSpec(const experiment::RunSpec& base, const Arm& arm);

/// A fresh scheduling policy for one run of `arm` (what armSpec's factory
/// returns for mutation arms; makePolicy(arm.policy or basePolicy)
/// otherwise).  Exposed so callers can wrap it in a RecordingPolicy to
/// capture a witness of a find for the triage corpus.
std::unique_ptr<rt::SchedulePolicy> makeArmPolicy(const Arm& arm,
                                                  const std::string& basePolicy);

/// The failure fingerprint of one observation ("" for a clean run):
/// 16-hex FNV-1a over (status, oracle verdict, normalized outcome,
/// normalized failure message).  A pure function of the record, so guided
/// resume and replay re-derive identical bandit rewards from the journal.
std::string observationFingerprint(const experiment::RunObservation& o);

/// Runs a guided campaign.  base.tool.coverage defaults to "switch-pair"
/// when unset (the guide needs a coverage signal).  Throws
/// std::runtime_error on configuration errors (unknown names, digest
/// mismatch on resume/replay, decision log missing for journaled runs).
GuideResult runGuided(const experiment::RunSpec& base,
                      const GuideOptions& opts);

/// A parsed MTTGUIDE decision log:
///
///   MTTGUIDE 1
///   config <16-hex FNV-1a of the campaign config text>
///   arms <n>
///   arm <index> <label>          (n lines; labels are single tokens)
///   A <runIndex> <armIndex> <seed>
struct DecisionLog {
  std::uint64_t digest = 0;
  std::vector<std::string> labels;
  /// runIndex -> (arm index, seed); first occurrence wins.
  std::map<std::uint64_t, std::pair<std::size_t, std::uint64_t>> assignments;
  /// The text ended in an unterminated line, which was dropped (or the
  /// header itself was cut short: then the log is empty).
  bool tornTail = false;
};

/// Parses decision-log text (core/wire.hpp line split: '\n' commits a
/// line, as in the journal).  A torn tail is dropped and flagged; a
/// malformed committed line throws std::runtime_error naming `path`.
DecisionLog parseDecisionLog(std::string_view text, const std::string& path);
/// The log text holding exactly this header and these assignments.
std::string renderDecisionLog(
    std::uint64_t digest, const std::vector<std::string>& labels,
    const std::map<std::uint64_t, std::pair<std::size_t, std::uint64_t>>&
        assignments);

/// Renders the per-arm allocation table plus the campaign summary
/// (coverage, saturation, first find).  timing=false omits wall-clock
/// lines for byte-stable reports.
std::string guideReport(const GuideResult& g, bool timing = true);

}  // namespace mtt::guide
