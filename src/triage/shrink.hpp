// Schedule minimization — delta debugging over the decision vector.
//
// A hunted counterexample carries every scheduling decision of the run that
// found it, including noise-injected yields/sleeps and scheduling churn that
// has nothing to do with the bug.  shrinkScenario reduces it to a small
// witness with the SAME failure signature:
//
//   1. reproduce the original under exact replay and take its signature as
//      the target;
//   2. noise-strip baseline: re-run the decisions *without* the noise maker
//      (exact decision control makes noise redundant) — kept if the
//      signature still matches, dropping every noise-injected operation;
//   3. ddmin (Zeller/Hildebrandt) over the decision vector: repeatedly
//      delete chunks, re-executing each candidate in repair mode
//      (probeCandidate) and accepting it iff the signature matches and the
//      re-recorded schedule is strictly shorter;
//   4. a preemption-lowering pass: rewrite context switches to let the
//      previous thread continue, accepting signature-preserving candidates
//      with strictly fewer preemptions — witnesses end up "mostly
//      sequential", which is what a human wants to read; a sibling
//      store-lowering pass rewrites weak-memory StorePick decisions to
//      "observe the coherence-newest store" (the SC behaviour), so the
//      witness keeps only the stale reads the bug actually needs;
//   5. final exact-replay verification of the minimized witness.
//
// Each sweep (one ddmin granularity, one lowering round) names its
// candidates by an exact key relative to the snapshot it edits: ddmin by
// the window it drops, slid right over equal decisions (dropping any one of
// a run of equal picks gives the same vector), the lowering passes by the
// position they rewrite.  A probe is a pure function of the candidate and
// the tool config, so the shrinker keeps the keys rejected on the current
// schedule — across passes, cleared only when the schedule is replaced —
// and never runs a candidate twice on one snapshot.  An accepted candidate
// hands its recorded (repaired) decisions back to become the new schedule;
// the winner is not run again.
//
// Candidate batches are evaluated in parallel by one farm::Workers scan per
// sweep, on worker threads kept for the whole shrink, each on a probe stack
// (and runtime) it leases for the shrink; because the scan always selects
// the smallest accepted candidate index, the minimized schedule is
// byte-identical for any --jobs value.  So is the `validations` count: it
// counts what the serial scan runs (every candidate up to and including
// each winner), and the budget is checked against it.  Probes that parallel
// workers ran past a winner are counted apart, as `speculative`.
#pragma once

#include <cstdint>

#include "replay/replay.hpp"
#include "triage/signature.hpp"

namespace mtt::triage {

struct ShrinkOptions {
  /// Workers for candidate evaluation; 0 = hardware concurrency, 1 = serial.
  std::size_t jobs = 1;
  /// Hard cap on `validations` (the shrink budget); the final exact-replay
  /// verification may run one past it.
  std::uint64_t maxValidations = 50'000;
  /// Try dropping the noise maker from the replay tool stack first.
  bool allowNoiseStrip = true;
};

struct ShrinkResult {
  /// The input scenario reproduced its failure under exact replay.  When
  /// false, nothing was minimized and `minimized` echoes the input.
  bool reproduced = false;
  /// The minimized witness exact-replays (no divergence) with the target
  /// signature.
  bool verifiedExact = false;
  /// The witness no longer needs the noise maker attached.
  bool noiseStripped = false;
  /// The target signature every accepted candidate matched.
  FailureSignature signature;

  rt::Schedule original;
  replay::Scenario minimized;
  std::size_t originalPreemptions = 0;
  std::size_t minimizedPreemptions = 0;
  /// Probes of the serial scan: the reproduction, the noise-strip probe,
  /// every candidate up to and including each sweep's winner (or the whole
  /// sweep when none is accepted) and the final verification.  The same for
  /// any ShrinkOptions::jobs.
  std::uint64_t validations = 0;
  /// Probes that parallel workers ran past a sweep's winner; always 0 at
  /// jobs = 1, and varies from run to run above that.
  std::uint64_t speculative = 0;
  /// Accepted improvements (size or preemption reductions).
  std::uint64_t rounds = 0;

  double removedRatio() const {
    if (original.size() == 0) return 0.0;
    double kept = static_cast<double>(minimized.schedule.size()) /
                  static_cast<double>(original.size());
    return kept < 1.0 ? 1.0 - kept : 0.0;
  }
};

/// Minimizes a failing scenario.  Everything but `speculative` is
/// deterministic for a given input and any ShrinkOptions::jobs value.
ShrinkResult shrinkScenario(const replay::Scenario& s,
                            const ShrinkOptions& opts = {});

}  // namespace mtt::triage
