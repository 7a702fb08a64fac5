// Systematic state-space exploration of real (instrumented) programs —
// Section 2.2 of the paper:
//
//   "Such tools systematically explore the state space of a system by
//    controlling and observing the execution of all the components, and by
//    reinitializing their executions.  They search for deadlocks, and for
//    violations of user-specified assertions.  Whenever an error is detected
//    during state-space exploration, a scenario leading to the error state
//    is saved.  Scenarios can be executed and replayed."
//
// This is the VeriSoft-style *stateless* search over the controlled
// runtime: the program is re-run from scratch for each explored schedule
// (replay technology "is needed to force interleavings" — here the
// controlled scheduler provides it).  Knobs:
//   * naive DFS (the default): every scheduling decision is a branch, so
//     every interleaving runs once.  It is the differential oracle for the
//     reduced search below;
//   * preemption bounding (iterative context bounding, naive DFS only):
//     explore schedules with at most k preemptive switches first — most
//     bugs need few;
//   * Optimal DPOR (`sleepSets`): source sets plus wakeup trees (Abdulla,
//     Aronis, Jonsson, Sagonas, "Optimal Dynamic Partial Order Reduction",
//     POPL 2014).  Each finished run is scanned for reversible races under
//     the dependence relation (rt::independent() plus program order, with
//     two loads of one atomic and the read side of an rwlock independent,
//     and a sleep's expiry ordered with everything); each race plants a
//     wakeup
//     sequence at the node before its first event, and nodes branch only
//     on those sequences.  Sleep sets stay inside the algorithm, so no run
//     reaches a node whose enabled operations are all asleep, and one run
//     is executed per Mazurkiewicz trace — except where a reversal needs a
//     semaphore permit count no observation bounds: such a sequence is
//     planted anyway (no trace is lost) and, if it cannot run, its run ends
//     sleep-blocked and is discarded.  Weak-memory store choices
//     stay exhaustive local branches: a load that may observe several
//     stores tries each of them.  Combining it with preemption bounding is
//     rejected (bounded POR is unsound when combined naively; Coons,
//     Musuvathi, McKinley, OOPSLA 2013);
//   * random walk mode: sample schedules instead of enumerating (baseline).
// The saved scenario is an rt::Schedule, replayable via rt::ReplayPolicy /
// mtt::replay.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "experiment/tool_stack.hpp"
#include "rt/controlled_runtime.hpp"
#include "rt/policy.hpp"

namespace mtt::experiment {
struct RunSpec;
}  // namespace mtt::experiment

namespace mtt::explore {

struct ExploreOptions {
  /// Optional tool stack attached to every explored execution (detectors,
  /// coverage, noise).  Reset before each run, so the stack's final state
  /// describes the last executed schedule — with stopAtFirstBug that is the
  /// counterexample run.  Borrowed: must outlive the explore() call.
  experiment::ToolStack* tools = nullptr;
  /// Maximum complete executions to try.
  std::uint64_t maxSchedules = 10'000;
  /// Maximum preemptive context switches per schedule (-1 = unbounded).
  /// A preemption is choosing away from the running thread while it is
  /// enabled and not yielding.  Naive DFS only: together with sleepSets it
  /// is rejected with std::invalid_argument.
  int preemptionBound = -1;
  /// Per-run step limit (livelock guard inside one schedule).
  std::uint64_t maxStepsPerRun = 200'000;
  /// Stop at the first schedule whose oracle reports a bug.
  bool stopAtFirstBug = true;
  /// Selects Optimal DPOR (source sets, wakeup trees and sleep sets) instead
  /// of naive DFS: one run per Mazurkiewicz trace, the same reachable
  /// deadlocks, assertion failures and oracle verdicts.  (The name predates
  /// DPOR, when this knob selected sleep-set pruning alone.)
  bool sleepSets = false;
  /// Sample random schedules instead of DFS enumeration.
  bool randomWalk = false;
  std::uint64_t seed = 1;
};

struct ExploreResult {
  std::uint64_t schedules = 0;   ///< complete executions performed
  /// Executions that ended sleep-blocked (every enabled operation asleep)
  /// and were discarded.  DPOR never starts one, so this reads 0 unless the
  /// search met something its race analysis does not model; schedules +
  /// prunedRuns is the number of executions run.
  std::uint64_t prunedRuns = 0;
  std::uint64_t totalSteps = 0;  ///< scheduling decisions across all runs
  bool exhausted = false;        ///< schedule space fully enumerated
  bool bugFound = false;
  std::uint64_t firstBugSchedule = 0;  ///< 1-based index of the first bug
  rt::Schedule counterexample;         ///< replayable scenario
  rt::RunResult bugResult;
  std::uint64_t deadlocks = 0;
  std::uint64_t oracleFailures = 0;
};

/// The search-driving schedule policy.  One instance persists across runs;
/// the Explorer re-runs the program until backtrack() reports the search
/// space exhausted.
class ExplorerPolicy final : public rt::SchedulePolicy {
 public:
  /// Throws std::invalid_argument for a preemption bound with DPOR.
  explicit ExplorerPolicy(int preemptionBound = -1, bool dpor = false);

  void onRunStart(std::uint64_t seed) override;
  ThreadId pick(const rt::PickContext& ctx) override;
  /// Weak-memory store choice points are exhaustive local branches in both
  /// modes (no preemption cost), so backtrack() enumerates every store.
  std::uint32_t pickStore(const rt::StorePickContext& ctx) override;

  /// Advances to the next unexplored schedule; false when exhausted.  Under
  /// DPOR it first analyses the races of the run that just finished.
  bool backtrack();
  /// Decisions taken in the last run (the scenario).
  const rt::Schedule& lastSchedule() const { return lastSchedule_; }
  /// True when the program behaved nondeterministically under replayed
  /// prefixes (would invalidate the search).
  bool divergenceDetected() const { return diverged_; }
  /// True when the last run reached a node whose every enabled operation
  /// was asleep: it is Mazurkiewicz-equivalent to an explored run and is
  /// discarded (not counted, not oracle-evaluated).
  bool prunedRun() const { return pruned_; }

 private:
  // --- naive DFS ------------------------------------------------------------
  struct Choice {
    std::uint32_t idx = 0;    ///< which alternative is being explored
    std::uint32_t count = 0;  ///< explorable alternatives (budget-capped)
    std::uint32_t realCount = 0;     ///< actual alternatives (for the
                                     ///< determinism/divergence check)
    bool isStore = false;            ///< store-observation node (StorePick)
    bool currentWasEnabled = false;  ///< picking idx>0 costs a preemption
  };
  std::vector<ThreadId> orderAlternatives(const rt::PickContext& ctx) const;
  int preemptionsUpTo(std::size_t len, std::uint32_t lastIdx) const;
  ThreadId pickNaive(const rt::PickContext& ctx);
  std::uint32_t pickStoreNaive(std::uint32_t count);
  bool backtrackNaive();

  // --- DPOR -----------------------------------------------------------------
  /// One event as a wakeup tree names it: the operation a thread ran and,
  /// for a load that offered several stores, the one it observed.
  struct Step {
    rt::PendingOpInfo op;
    std::int32_t store = -1;  ///< StorePick index; -1 = no store choice
  };
  struct WakeupNode {
    Step step;
    std::vector<WakeupNode> children;
  };
  /// A node of the current path: a thread pick (one event) or a store pick.
  struct Node {
    bool isStore = false;
    // Thread pick.
    Step ev;                                  ///< event explored from here
    std::uint64_t clock = 0;                  ///< the runtime's step count
    std::vector<rt::PendingOpInfo> enabled;   ///< ops enabled at this node
    std::vector<rt::PendingOpInfo> sleep;     ///< inherited + explored
    std::vector<WakeupNode> wakeup;           ///< children still to explore
    // Store pick: alternatives are tried in the order first, then the rest
    // ascending; pos indexes that order.
    std::uint32_t count = 0, pos = 0, first = 0;
    std::uint32_t storeIndex() const {
      if (pos == 0) return first;
      return pos - 1 < first ? pos - 1 : pos;
    }
  };
  /// Per-run facts about event k (the k-th thread pick), rebuilt by
  /// analyzeRaces().
  struct EventInfo {
    std::uint32_t node = 0;      ///< index into path_
    std::uint32_t local = 0;     ///< 1-based index within its thread
    std::int32_t prev = -1;      ///< previous event of the same thread
    std::int32_t enabler = -1;   ///< event after which the thread was enabled
    std::int32_t follow = -1;    ///< event it cannot be reordered before
    ThreadId holder = kNoThread; ///< mutex holder / rwlock writer before it
    std::uint32_t readers = 0;   ///< rwlock readers before it
    std::int64_t lo = 0, hi = 0; ///< permit change bounds before it
    std::uint32_t decisions = 1; ///< 2 when it offered a store choice
  };
  /// A semaphore event, or an observed zero count, with the least and
  /// greatest permit change before it.
  struct SemEvent {
    std::uint32_t at = 0;
    std::int64_t lo = 0, hi = 0;
  };
  struct Semaphore {
    std::vector<SemEvent> events, anchors;  ///< anchors: observed zeros
    std::int64_t lo = 0, hi = 0;            ///< running totals
  };
  /// Race-candidate index: the events filed under one object, split by
  /// whether they commute with each other (reads) or not (writes).
  struct Lane {
    std::vector<std::uint32_t> writes, reads;
  };
  enum class Verdict : std::uint8_t { NotInitial, Found, Absent };
  /// Whether a race's second event can run before its first.
  enum class Reversal : std::uint8_t { No, Yes, Unknown };

  ThreadId pickDpor(const rt::PickContext& ctx);
  std::uint32_t pickStoreDpor(std::uint32_t count);
  bool backtrackDpor();
  void analyzeRaces();
  void noteSemaphore(std::uint32_t k);
  void scanRaces(std::uint32_t j);
  void fileEvent(std::uint32_t k);
  Reversal reversible(std::uint32_t i, std::uint32_t j) const;
  void plant(std::uint32_t i, std::uint32_t j);
  Verdict weakInitial(const rt::PendingOpInfo& q,
                      const std::vector<std::uint32_t>& v,
                      std::size_t* at) const;
  bool hbBefore(std::uint32_t a, std::uint32_t b) const;
  const Step& stepOf(std::uint32_t k) const { return path_[info_[k].node].ev; }
  std::uint64_t clockAt(std::uint32_t k) const {
    return path_[info_[k].node].clock;
  }
  std::uint32_t* clockOf(std::uint32_t k) { return &vc_[k * threads_]; }
  const std::uint32_t* clockOf(std::uint32_t k) const {
    return &vc_[k * threads_];
  }

  int preemptionBound_;
  bool dpor_;
  std::size_t step_ = 0;
  rt::Schedule lastSchedule_;
  bool diverged_ = false;
  bool pruned_ = false;
  std::vector<Choice> prefix_;  ///< naive DFS path

  std::vector<Node> path_;             ///< DPOR path
  std::vector<WakeupNode> plan_;       ///< wakeup subtree the run follows
  std::vector<rt::PendingOpInfo> childSleep_;  ///< sleep set of next node
  std::size_t lastThreadNode_ = 0;
  std::size_t frontier_ = 0;  ///< first path node this run did not replay
  std::int32_t plannedStore_ = -1;  ///< store the planned load observes
  // Race-analysis scratch, kept for its capacity.
  std::vector<EventInfo> info_;
  std::vector<std::uint32_t> vc_;  ///< event vector clocks, threads_ wide
  std::size_t threads_ = 0;
  std::vector<std::uint32_t> mask_, full_;
  /// The event a wakeup sequence moves before its race partner, and its
  /// vector clock within that sequence.
  std::uint32_t reversed_ = 0;
  std::vector<std::uint32_t> reversedClock_;
  std::vector<std::int32_t> finishAt_;  ///< Finish event of each thread
  std::unordered_map<std::uint64_t, Lane> lanes_;
  std::unordered_map<ObjectId, Semaphore> sems_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> races_;
};

class Explorer {
 public:
  explicit Explorer(ExploreOptions opts = {}) : opts_(opts) {}

  /// Explores schedules of `body`.  `oracle` returns true when the bug
  /// manifested in a run (default: any abnormal termination).  `prepare`
  /// (optional) runs before each execution (e.g. suite::Program::reset).
  /// Throws std::invalid_argument for preemptionBound >= 0 with sleepSets.
  ExploreResult explore(
      const std::function<void(rt::Runtime&)>& body,
      const std::function<bool(const rt::RunResult&)>& oracle = {},
      const std::function<void()>& prepare = {});

 private:
  ExploreOptions opts_;
};

/// Spec-driven exploration: resolves the suite program named by `spec`,
/// builds the tool stack its ToolConfig describes (unless opts.tools is
/// already set), takes the per-run step limit from spec.runOptions and the
/// walk seed from spec.seedBase (when nonzero), and uses the program's own
/// oracle.  This is the RunSpec face of the explorer — the same knob struct
/// executeRun and the farm consume; exploration-only knobs (enumeration
/// budget, preemption bound, DPOR, random walk) stay in ExploreOptions.
/// spec.tool.policy has no effect here — the explorer owns scheduling —
/// which is why the CLI rejects an explicit --policy on the explore
/// subcommand (exit 2) instead of silently dropping it.
ExploreResult exploreSpec(const experiment::RunSpec& spec,
                          ExploreOptions opts = {});

}  // namespace mtt::explore
