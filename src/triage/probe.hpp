// Replay probes: the three ways mtt::triage re-executes a suite program
// under the controlled runtime and observes its failure signature.
//
//   * recordRun      — run a fresh named policy (the hunt/record path),
//                      capturing the decision vector.
//   * probeExact     — exact replay of a recorded schedule via
//                      rt::ReplayPolicy (what `mtt replay` does), plus the
//                      signature of what happened.
//   * probeCandidate — best-effort execution of an *edited* decision vector,
//                      the evaluation primitive of schedule minimization:
//                      decisions naming a not-currently-enabled thread are
//                      skipped, an exhausted vector falls back to a
//                      deterministic round-robin tail, and the decisions the
//                      run actually took are re-recorded.  The recorded
//                      vector is always exactly replayable by probeExact.
//
// A probe runs on a probe tool stack (probeStack) and the runtime it keeps,
// so a loop of probes passes one stack.  Every probe builds its own program
// instance: probes on distinct stacks may run concurrently (the property
// farm-parallel candidate batches rely on).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "experiment/tool_stack.hpp"
#include "replay/replay.hpp"
#include "rt/policy.hpp"
#include "triage/signature.hpp"

namespace mtt::triage {

/// The tool stack a probe attaches around the program: the noise heuristic
/// that shaped the recorded run (signature-relevant: noise changes the
/// event stream) and the seed its injections derive from.
struct ReplayToolConfig {
  std::string noiseName = "none";
  double strength = 0.25;
  std::uint64_t seed = 0;
};

/// The replay tool config stored in a scenario's header.
ReplayToolConfig toolConfigOf(const replay::Scenario& s);

struct ProbeResult {
  rt::RunResult result;
  FailureSignature signature;
  rt::Schedule recorded;  ///< decisions the run actually took
  /// Parallel to `recorded`: true where the decision scheduled a
  /// noise-injected yield/sleep (ControlledRuntime::decisionNoise).
  std::vector<bool> noiseDecisions;
  bool exact = false;     ///< followed the given decisions with no repair
  std::string outcome;    ///< program outcome string
};

/// The tool stack a probe under `cfg` runs on: a SignatureCollector first,
/// then the noise maker cfg names.  Throws std::runtime_error on an unknown
/// noise heuristic.
experiment::ToolStack probeStack(const ReplayToolConfig& cfg);

/// Runs the program under `policy` (or one built by name, "random", "rr",
/// "priority") at cfg.seed, recording schedule + signature.
ProbeResult recordRun(const std::string& program,
                      std::unique_ptr<rt::SchedulePolicy> policy,
                      const ReplayToolConfig& cfg);
ProbeResult recordRun(const std::string& program, const std::string& policy,
                      const ReplayToolConfig& cfg);

/// Exact replay of a recorded schedule (rt::ReplayPolicy).  exact is false
/// when the replay diverged.  Runs on `tools` (from probeStack(cfg)), or
/// on a stack built for the call.
ProbeResult probeExact(const std::string& program, const rt::Schedule& s,
                       const ReplayToolConfig& cfg,
                       experiment::ToolStack* tools = nullptr);

/// Best-effort execution of an edited decision vector (see file comment).
/// StorePick decisions are consumed at store choice points; an edit that
/// misaligned them is repaired by observing the coherence-newest store.
/// `tools` as for probeExact.
ProbeResult probeCandidate(const std::string& program,
                           const std::vector<rt::Decision>& decisions,
                           const ReplayToolConfig& cfg,
                           experiment::ToolStack* tools = nullptr);

/// Offline preemption estimate for a decision vector: context switches away
/// from a thread that is scheduled again later (a switch away from a thread
/// that never runs again is it finishing, not a preemption).  StorePick
/// decisions are transparent — they belong to the thread scheduled before
/// them and never count as switches.
std::size_t countPreemptions(const std::vector<rt::Decision>& decisions);

}  // namespace mtt::triage
