#include "explore/explorer.hpp"

#include <algorithm>
#include <stdexcept>

#include "experiment/experiment.hpp"
#include "suite/program.hpp"

namespace mtt::explore {

namespace {

using rt::OpKind;
using rt::PendingOpInfo;

constexpr const char* kBoundedDpor =
    "a preemption bound cannot be combined with --sleep-sets (DPOR): "
    "partial-order reduction under a preemption bound is unsound";

/// DPOR's dependence relation: rt::independent() with three refinements.
/// Two loads of one atomic commute (each moves only its own thread's clock
/// and coherence floor), so a load depends only on the stores and RMWs of
/// its location and on fences.  The read side of an rwlock commutes with
/// itself.  A sleep's expiry is ordered with everything.
/// Read-lock and read-unlock of an rwlock: each only moves the reader count
/// (and an unlock joins the readers' release clock, which neither reads),
/// so any two of them, by different threads, commute.
bool readSide(OpKind k) {
  return k == OpKind::RwRead || k == OpKind::RwUnlockRead;
}

bool dependent(const PendingOpInfo& a, const PendingOpInfo& b) {
  if (a.thread == b.thread) return true;
  if (a.kind == OpKind::AtomicLoad && b.kind == OpKind::AtomicLoad) {
    return false;
  }
  if (readSide(a.kind) && readSide(b.kind)) return false;
  // A sleep expires after a number of steps, any steps: every event moves
  // its enabledness, so it stays ordered with all of them.
  if (a.kind == OpKind::Sleep || b.kind == OpKind::Sleep) return true;
  return !rt::independent(a, b);
}

bool asleep(const std::vector<PendingOpInfo>& sleep, const PendingOpInfo& op) {
  return std::find(sleep.begin(), sleep.end(), op) != sleep.end();
}

bool runnable(const rt::PickContext& ctx, const PendingOpInfo& op) {
  const PendingOpInfo* now = ctx.opOf(op.thread);
  return now != nullptr && *now == op;
}

void join(std::vector<std::uint32_t>& dst, const std::uint32_t* src) {
  for (std::size_t t = 0; t < dst.size(); ++t) dst[t] = std::max(dst[t], src[t]);
}

// --- race-candidate lanes ---------------------------------------------------
// Every event is filed under the lanes of the objects it touches; an event's
// race candidates are the events of the lanes it scans.  Two facts make the
// scan in scanRaces() complete: every operation dependent with `op` (other
// than its own thread's) is filed under a lane `op` scans, and the events
// filed as reads of one lane commute with each other and with a reader that
// scans it.

enum LaneClass : std::uint64_t {
  kMutexLane = 1, kCondLane, kSemLane, kBarrierLane, kRwLane, kVarLane,
  kThreadLane, kQueueLane, kAtomicLane, kSpawnLane, kFenceLane, kAtomicsLane,
  kSleepLane, kAllLane
};

struct LaneRef {
  std::uint64_t key;
  bool read;
};

constexpr LaneRef lane(std::uint64_t cls, ObjectId id, bool read = false) {
  return LaneRef{cls << 32 | id, read};
}

/// The lanes of the objects `op` touches.
int objectLanesOf(const PendingOpInfo& op, bool scan, LaneRef out[2]) {
  switch (op.kind) {
    case OpKind::MutexLock:
    case OpKind::MutexTryLock:
    case OpKind::MutexUnlock:
      out[0] = lane(kMutexLane, op.object);
      return 1;
    case OpKind::CondWait:
      out[0] = lane(kCondLane, op.object);
      out[1] = lane(kMutexLane, op.object2);
      return 2;
    case OpKind::CondSignal:
    case OpKind::CondBroadcast:
      out[0] = lane(kCondLane, op.object);
      return 1;
    case OpKind::SemAcquire:
    case OpKind::SemTryAcquire:
    case OpKind::SemRelease:
      out[0] = lane(kSemLane, op.object);
      return 1;
    case OpKind::BarrierArrive:
      out[0] = lane(kBarrierLane, op.object);
      return 1;
    case OpKind::RwRead:
    case OpKind::RwWrite:
    case OpKind::RwUnlockRead:
    case OpKind::RwUnlockWrite:
      out[0] = lane(kRwLane, op.object, readSide(op.kind));
      return 1;
    case OpKind::VarRead:
    case OpKind::VarWrite:
      out[0] = lane(kVarLane, op.object, op.kind == OpKind::VarRead);
      return 1;
    case OpKind::Join:
      out[0] = lane(kThreadLane, op.object);
      return 1;
    case OpKind::Finish:
      out[0] = lane(kThreadLane, op.thread);
      return 1;
    case OpKind::Task:
      out[0] = lane(kQueueLane, op.object);
      return 1;
    case OpKind::Spawn:
      out[0] = lane(kSpawnLane, 0);
      return 1;
    case OpKind::AtomicLoad:
    case OpKind::AtomicStore:
    case OpKind::AtomicRMW:
      // Filed per location and in the all-atomics lane fences scan; scans
      // its location and the fences.
      out[0] = lane(kAtomicLane, op.object, op.kind == OpKind::AtomicLoad);
      out[1] = scan ? lane(kFenceLane, 0, true) : lane(kAtomicsLane, 0, true);
      return 2;
    case OpKind::Fence:
      // A fence depends on every atomic operation: filed as a write of the
      // fence lane (atomics scan it) and of the all-atomics lane, which it
      // scans whole back to the previous covered fence.
      if (scan) {
        out[0] = lane(kAtomicsLane, 0);
        return 1;
      }
      out[0] = lane(kFenceLane, 0);
      out[1] = lane(kAtomicsLane, 0);
      return 2;
    case OpKind::ThreadStart:
    case OpKind::Yield:
    case OpKind::Sleep:
      return 0;  // touches no object
  }
  return 0;
}

/// The lanes `op` is filed under (scan = false) or scans (scan = true):
/// those of its objects, plus the sleep lanes.  A sleep depends on every
/// event, so every event is filed in the all-events lane a sleep scans, and
/// scans the lane of sleeps.
int lanesOf(const PendingOpInfo& op, bool scan, LaneRef out[3]) {
  if (op.kind == OpKind::Sleep) {
    out[0] = lane(kAllLane, 0);
    if (scan) return 1;
    out[1] = lane(kSleepLane, 0);
    return 2;
  }
  const int n = objectLanesOf(op, scan, out);
  out[n] = scan ? lane(kSleepLane, 0, true) : lane(kAllLane, 0, true);
  return n + 1;
}

}  // namespace

ExplorerPolicy::ExplorerPolicy(int preemptionBound, bool dpor)
    : preemptionBound_(preemptionBound), dpor_(dpor) {
  if (dpor && preemptionBound >= 0) throw std::invalid_argument(kBoundedDpor);
}

void ExplorerPolicy::onRunStart(std::uint64_t seed) {
  (void)seed;
  step_ = 0;
  pruned_ = false;
  childSleep_.clear();
  lastSchedule_.decisions.clear();
}

ThreadId ExplorerPolicy::pick(const rt::PickContext& ctx) {
  return dpor_ ? pickDpor(ctx) : pickNaive(ctx);
}

std::uint32_t ExplorerPolicy::pickStore(const rt::StorePickContext& ctx) {
  const auto count = static_cast<std::uint32_t>(ctx.options.size());
  const std::uint32_t idx = dpor_ ? pickStoreDpor(count) : pickStoreNaive(count);
  ++step_;
  lastSchedule_.decisions.push_back(rt::Decision::store(idx));
  return idx;
}

bool ExplorerPolicy::backtrack() {
  return dpor_ ? backtrackDpor() : backtrackNaive();
}

// --- naive DFS ----------------------------------------------------------------

std::vector<ThreadId> ExplorerPolicy::orderAlternatives(
    const rt::PickContext& ctx) const {
  // Continue-current first (a non-preemptive choice), then the others by
  // ascending id.  With this ordering, alternative index 0 along the whole
  // prefix is exactly round-robin — DFS explores low-preemption schedules
  // first, which is what makes preemption bounding effective.
  std::vector<ThreadId> out;
  bool currentEnabled =
      !ctx.currentYielding &&
      std::find(ctx.enabled.begin(), ctx.enabled.end(), ctx.current) !=
          ctx.enabled.end();
  if (currentEnabled) out.push_back(ctx.current);
  for (ThreadId t : ctx.enabled) {
    if (!(currentEnabled && t == ctx.current)) out.push_back(t);
  }
  return out;
}

int ExplorerPolicy::preemptionsUpTo(std::size_t len,
                                    std::uint32_t lastIdx) const {
  // Preemptions in prefix_[0, len), with entry len-1's idx overridden by
  // lastIdx (used to cost a hypothetical alternative during backtracking).
  int p = 0;
  for (std::size_t i = 0; i < len; ++i) {
    std::uint32_t idx = (i + 1 == len) ? lastIdx : prefix_[i].idx;
    if (idx > 0 && prefix_[i].currentWasEnabled) ++p;
  }
  return p;
}

ThreadId ExplorerPolicy::pickNaive(const rt::PickContext& ctx) {
  std::vector<ThreadId> alts = orderAlternatives(ctx);
  bool currentEnabled = !alts.empty() && alts.front() == ctx.current &&
                        !ctx.currentYielding &&
                        std::find(ctx.enabled.begin(), ctx.enabled.end(),
                                  ctx.current) != ctx.enabled.end();
  if (step_ < prefix_.size()) {
    // Replaying the committed prefix.
    Choice& c = prefix_[step_];
    if (c.realCount != alts.size()) diverged_ = true;
    std::uint32_t idx = std::min<std::uint32_t>(
        c.idx, static_cast<std::uint32_t>(alts.size()) - 1);
    ++step_;
    lastSchedule_.decisions.push_back(rt::Decision::thread(alts[idx]));
    return alts[idx];
  }
  // Fresh node: take the first alternative and record the branching
  // degree.  When the preemption budget is exhausted, preemptive
  // alternatives are not explorable, so the recorded count collapses
  // accordingly.
  Choice c;
  c.idx = 0;
  c.currentWasEnabled = currentEnabled;
  // Would taking a preemptive alternative (idx > 0) at this node still fit
  // the budget?  If not, only alternative 0 is ever explorable here.
  bool budgetLeft =
      preemptionBound_ < 0 ||
      preemptionsUpTo(prefix_.size(),
                      prefix_.empty() ? 0 : prefix_.back().idx) +
              (currentEnabled ? 1 : 0) <=
          preemptionBound_;
  c.realCount = static_cast<std::uint32_t>(alts.size());
  c.count = (currentEnabled && !budgetLeft) ? 1 : c.realCount;
  prefix_.push_back(c);
  ++step_;
  lastSchedule_.decisions.push_back(rt::Decision::thread(alts[0]));
  return alts[0];
}

std::uint32_t ExplorerPolicy::pickStoreNaive(std::uint32_t count) {
  if (step_ < prefix_.size()) {
    Choice& c = prefix_[step_];
    if (!c.isStore || c.realCount != count) diverged_ = true;
    return std::min<std::uint32_t>(c.idx, count - 1);
  }
  // Fresh store node: observe the coherence-newest value first (the SC
  // behaviour), enumerate older observable stores on backtracking.
  Choice c;
  c.isStore = true;
  c.count = count;
  c.realCount = count;
  prefix_.push_back(c);
  return 0;
}

bool ExplorerPolicy::backtrackNaive() {
  while (!prefix_.empty()) {
    Choice& c = prefix_.back();
    std::uint32_t j = c.idx + 1;
    if (j < c.count) {
      // Check the preemption budget for the incremented alternative.
      if (preemptionBound_ < 0 ||
          preemptionsUpTo(prefix_.size(), j) <= preemptionBound_) {
        c.idx = j;
        return true;
      }
    }
    prefix_.pop_back();
  }
  return false;
}

// --- Optimal DPOR -------------------------------------------------------------
//
// path_ is the current execution: one Node per decision.  A thread node
// holds the event explored from it, the ops enabled there, its sleep set
// (inherited members still independent of everything run since, plus the
// children already explored) and its wakeup tree (the children still to
// explore, each with the sequence that follows it).  A run replays path_,
// then follows plan_ — the subtree under the child backtrack() chose — and,
// past its leaves, runs the first enabled op that is not asleep.  After the
// run, analyzeRaces() plants a wakeup sequence for every reversible race,
// and backtrack() moves to the deepest node with a child left.

ThreadId ExplorerPolicy::pickDpor(const rt::PickContext& ctx) {
  // The node backtrack() re-aimed is the path's last; earlier ones replay.
  bool replay = step_ + 1 < path_.size();
  if (step_ < path_.size() &&
      (path_[step_].isStore || (replay && !runnable(ctx, path_[step_].ev.op)))) {
    // The program does not repeat the recorded prefix: nondeterminism the
    // runtime does not control.  The search is no longer exhaustive.
    diverged_ = true;
    path_.resize(step_);
    plan_.clear();
    frontier_ = std::min(frontier_, step_);
    replay = false;
  }
  std::int32_t planned = -1;
  if (step_ == path_.size()) {
    Node nd;
    nd.enabled.assign(ctx.ops.begin(), ctx.ops.end());
    nd.sleep = childSleep_;
    nd.ev.op.thread = kNoThread;
    if (!plan_.empty()) {
      // Follow the wakeup subtree: its leftmost child runs now, the rest
      // wait here as this node's wakeup tree.
      nd.wakeup = std::move(plan_);
      WakeupNode first = std::move(nd.wakeup.front());
      nd.wakeup.erase(nd.wakeup.begin());
      nd.ev = first.step;
      plan_ = std::move(first.children);
    }
    path_.push_back(std::move(nd));
  }
  Node& nd = path_[step_];
  if (!replay) {
    planned = nd.ev.store;
    if (!runnable(ctx, nd.ev.op) || asleep(nd.sleep, nd.ev.op)) {
      // No planned event, or one the race analysis could not prove
      // runnable here: run the first enabled op that is not asleep
      // (continue-current first, as naive DFS orders them).
      plan_.clear();
      planned = -1;
      nd.ev = Step{};
      const std::vector<ThreadId> alts = orderAlternatives(ctx);
      for (ThreadId t : alts) {
        if (!asleep(nd.sleep, *ctx.opOf(t))) {
          nd.ev.op = *ctx.opOf(t);
          break;
        }
      }
      if (nd.ev.op.thread == kNoThread) {
        // Every enabled op is asleep: the run is equivalent to an explored
        // one.  It runs on (its events still need a node each) and is
        // discarded when it ends.
        pruned_ = true;
        nd.ev.op = *ctx.opOf(alts.front());
      }
    }
  }
  plannedStore_ = planned;
  nd.clock = ctx.step;
  nd.ev.store = -1;  // set by pickStore when this event offers a store choice
  childSleep_.clear();
  for (const PendingOpInfo& q : nd.sleep) {
    if (!dependent(q, nd.ev.op)) childSleep_.push_back(q);
  }
  lastThreadNode_ = step_++;
  lastSchedule_.decisions.push_back(rt::Decision::thread(nd.ev.op.thread));
  return nd.ev.op.thread;
}

std::uint32_t ExplorerPolicy::pickStoreDpor(std::uint32_t count) {
  if (step_ < path_.size() &&
      (!path_[step_].isStore || path_[step_].count != count)) {
    diverged_ = true;
    path_.resize(step_);
    plan_.clear();
    frontier_ = std::min(frontier_, step_);
  }
  if (step_ == path_.size()) {
    // Fresh store node: a planned load observes the store its wakeup
    // sequence was built from first; every store is tried in turn.
    Node nd;
    nd.isStore = true;
    nd.count = count;
    if (plannedStore_ >= 0 && static_cast<std::uint32_t>(plannedStore_) < count) {
      nd.first = static_cast<std::uint32_t>(plannedStore_);
    } else {
      plan_.clear();
    }
    path_.push_back(nd);
  }
  plannedStore_ = -1;
  const std::uint32_t idx = path_[step_].storeIndex();
  path_[lastThreadNode_].ev.store = static_cast<std::int32_t>(idx);
  return idx;
}

bool ExplorerPolicy::backtrackDpor() {
  // A discarded run is not analysed, so the clocks cached for its events
  // stay stale and the next analysis starts where this one would have.
  const std::size_t stale = pruned_ ? frontier_ : path_.size();
  if (!pruned_) analyzeRaces();
  plan_.clear();
  while (!path_.empty()) {
    Node& nd = path_.back();
    frontier_ = std::min(stale, path_.size() - 1);
    if (nd.isStore) {
      if (++nd.pos < nd.count) return true;
      path_.pop_back();
      continue;
    }
    // The explored child joins the sleep set; the next wakeup child (if
    // any) is explored from here with its subtree as the plan.
    nd.sleep.push_back(nd.ev.op);
    while (!nd.wakeup.empty()) {
      WakeupNode next = std::move(nd.wakeup.front());
      nd.wakeup.erase(nd.wakeup.begin());
      if (asleep(nd.sleep, next.step.op)) continue;
      nd.ev = next.step;
      plan_ = std::move(next.children);
      return true;
    }
    path_.pop_back();
  }
  return false;
}

void ExplorerPolicy::analyzeRaces() {
  info_.clear();
  ThreadId maxThread = 0;
  for (std::size_t n = 0; n < path_.size(); ++n) {
    if (path_[n].isStore) continue;
    EventInfo e;
    e.node = static_cast<std::uint32_t>(n);
    if (n + 1 < path_.size() && path_[n + 1].isStore) e.decisions = 2;
    info_.push_back(e);
    maxThread = std::max(maxThread, path_[n].ev.op.thread);
    for (const PendingOpInfo& op : path_[n].enabled) {
      maxThread = std::max(maxThread, op.thread);
    }
  }
  const auto count = static_cast<std::uint32_t>(info_.size());
  // Events before the node the last backtrack changed replay the previous
  // run: their clocks are still in vc_, and that run already planted the
  // races that end among them.  Only a wider clock recomputes them.
  std::uint32_t fresh = 0;
  for (std::size_t n = 0; n < frontier_ && n < path_.size(); ++n) {
    if (!path_[n].isStore) ++fresh;
  }
  if (frontier_ < path_.size() && path_[frontier_].isStore && fresh > 0) {
    --fresh;  // a new store choice changes the load event before it
  }
  if (maxThread >= threads_) {
    threads_ = static_cast<std::size_t>(maxThread) + 1;
    fresh = 0;
  }
  vc_.resize(static_cast<std::size_t>(count) * threads_);
  std::fill(vc_.begin() + static_cast<std::ptrdiff_t>(fresh * threads_),
            vc_.end(), 0);
  for (auto& entry : lanes_) {
    entry.second.writes.clear();
    entry.second.reads.clear();
  }
  races_.clear();
  for (auto& entry : sems_) {
    entry.second.events.clear();
    entry.second.anchors.clear();
    entry.second.lo = entry.second.hi = 0;
  }

  // The first pass fills each event's program-order, enabling and wait
  // edges and the lock and permit state before it; the second scans each
  // event's races, which reads only earlier events' clocks but the whole
  // run's permit observations. program-order, enabling and wait
  // edges and the lock state before it, then scans its races (which read
  // only earlier events).
  struct MutexState {
    ThreadId holder = kNoThread;
    std::uint32_t depth = 0;
    bool recursive = false;
  };
  struct RwState {
    ThreadId writer = kNoThread;
    std::uint32_t readers = 0;
  };
  std::vector<std::int32_t> last(threads_, -1), enabledAt(threads_, -2),
      becameEnabled(threads_, -1), woken(threads_, -1);
  std::vector<std::uint32_t> local(threads_, 0), savedDepth(threads_, 0);
  std::vector<bool> inBarrier(threads_, false);
  finishAt_.assign(threads_, -1);
  std::unordered_map<ObjectId, std::vector<ThreadId>> condWaiters;
  std::unordered_map<ObjectId, MutexState> mutexes;
  std::unordered_map<ObjectId, RwState> rwlocks;

  for (std::uint32_t k = 0; k < count; ++k) {
    const Node& nd = path_[info_[k].node];
    const auto now = static_cast<std::int32_t>(k);
    for (const PendingOpInfo& op : nd.enabled) {
      if (enabledAt[op.thread] != now - 1) becameEnabled[op.thread] = now - 1;
      enabledAt[op.thread] = now;
    }
    const PendingOpInfo& op = nd.ev.op;
    const ThreadId p = op.thread;
    EventInfo& e = info_[k];
    e.local = ++local[p];
    e.prev = last[p];
    if (becameEnabled[p] > last[p]) e.enabler = becameEnabled[p];
    const OpKind prevKind =
        e.prev >= 0 ? stepOf(static_cast<std::uint32_t>(e.prev)).op.kind
                    : OpKind::ThreadStart;
    // A cond waiter's reacquire cannot move before the signal that woke it,
    // nor a barrier exit before the arrival that released it.
    if (prevKind == OpKind::CondWait) e.follow = woken[p];
    switch (op.kind) {
      case OpKind::MutexLock: {
        MutexState& m = mutexes[op.object];
        e.holder = m.holder;
        if (prevKind == OpKind::CondWait) {
          m.holder = p;
          m.depth = savedDepth[p];
        } else if (m.holder == p) {
          ++m.depth;
          m.recursive = true;
        } else {
          m.holder = p;
          m.depth = 1;
        }
        break;
      }
      case OpKind::MutexTryLock: {
        MutexState& m = mutexes[op.object];
        e.holder = m.holder;
        if (m.holder == kNoThread) {
          m.holder = p;
          m.depth = 1;
        } else if (m.holder == p && m.recursive) {
          ++m.depth;
        }
        break;
      }
      case OpKind::MutexUnlock: {
        MutexState& m = mutexes[op.object];
        e.holder = m.holder;
        if (m.holder == p && m.depth > 0 && --m.depth == 0) {
          m.holder = kNoThread;
        }
        break;
      }
      case OpKind::CondWait: {
        MutexState& m = mutexes[op.object2];
        e.holder = m.holder;
        savedDepth[p] = m.depth;
        m.holder = kNoThread;
        m.depth = 0;
        condWaiters[op.object].push_back(p);
        break;
      }
      case OpKind::CondSignal:
      case OpKind::CondBroadcast: {
        std::vector<ThreadId>& w = condWaiters[op.object];
        const std::size_t n =
            op.kind == OpKind::CondSignal ? std::min<std::size_t>(1, w.size())
                                          : w.size();
        for (std::size_t x = 0; x < n; ++x) woken[w[x]] = now;
        w.erase(w.begin(), w.begin() + static_cast<std::ptrdiff_t>(n));
        break;
      }
      case OpKind::BarrierArrive:
        // Arrival and exit alternate; an exit follows its releaser.
        if (inBarrier[p]) e.follow = e.enabler;
        inBarrier[p] = !inBarrier[p];
        break;
      case OpKind::RwRead:
      case OpKind::RwWrite:
      case OpKind::RwUnlockRead:
      case OpKind::RwUnlockWrite: {
        RwState& r = rwlocks[op.object];
        e.holder = r.writer;
        e.readers = r.readers;
        if (op.kind == OpKind::RwRead) ++r.readers;
        if (op.kind == OpKind::RwWrite) r.writer = p;
        if (op.kind == OpKind::RwUnlockRead && r.readers > 0) --r.readers;
        if (op.kind == OpKind::RwUnlockWrite) r.writer = kNoThread;
        break;
      }
      case OpKind::Finish:
        finishAt_[p] = now;
        break;
      default:
        break;
    }
    if (op.kind == OpKind::SemAcquire || op.kind == OpKind::SemTryAcquire ||
        op.kind == OpKind::SemRelease) {
      noteSemaphore(k);
    }
    last[p] = now;
  }
  for (std::uint32_t k = 0; k < count; ++k) {
    if (k >= fresh) scanRaces(k);
    fileEvent(k);
  }
  for (const auto& [i, j] : races_) plant(i, j);
}

void ExplorerPolicy::noteSemaphore(std::uint32_t k) {
  // Permit counts are not observable, but their changes and some of their
  // zeros are: a release adds at least one permit, an acquire takes one, a
  // try-acquire at most one, and an acquirer parked but not enabled shows
  // the count is zero at that node.  lo/hi are the least and greatest total
  // change before each event (kMany stands in for an unknown release count).
  constexpr std::int64_t kMany = std::int64_t{1} << 32;
  const PendingOpInfo& op = stepOf(k).op;
  Semaphore& sem = sems_[op.object];
  EventInfo& e = info_[k];
  const auto before = [&](std::uint32_t m) {
    // Totals before node m: the first event of this semaphore at or after m.
    auto it = std::lower_bound(
        sem.events.begin(), sem.events.end(), m,
        [](const SemEvent& x, std::uint32_t v) { return x.at < v; });
    return it == sem.events.end() ? std::make_pair(sem.lo, sem.hi)
                                  : std::make_pair(it->lo, it->hi);
  };
  if (op.kind == OpKind::SemAcquire && e.prev >= 0) {
    // The acquirer was parked on this acquire since its previous event.
    for (auto m = static_cast<std::uint32_t>(e.prev) + 1; m < k; ++m) {
      const std::vector<PendingOpInfo>& en = path_[info_[m].node].enabled;
      const bool parkedEnabled = std::any_of(
          en.begin(), en.end(),
          [&](const PendingOpInfo& o) { return o.thread == op.thread; });
      if (parkedEnabled) continue;
      const auto [lo, hi] = before(m);
      if (sem.anchors.empty() || sem.anchors.back().lo != lo ||
          sem.anchors.back().hi != hi) {
        sem.anchors.push_back(SemEvent{m, lo, hi});
      }
    }
  }
  e.lo = sem.lo;
  e.hi = sem.hi;
  sem.events.push_back(SemEvent{k, sem.lo, sem.hi});
  switch (op.kind) {
    case OpKind::SemRelease:
      sem.lo += 1;
      sem.hi += kMany;
      break;
    case OpKind::SemAcquire:
      sem.lo -= 1;
      sem.hi -= 1;
      break;
    default:  // SemTryAcquire
      sem.lo -= 1;
      break;
  }
}

void ExplorerPolicy::scanRaces(std::uint32_t j) {
  const EventInfo& e = info_[j];
  const PendingOpInfo& op = stepOf(j).op;
  // mask_: what j already happens after (program order, and the event it
  // must follow); an event it covers is no race partner.  full_: every
  // happens-before edge into j, its vector clock.
  mask_.assign(threads_, 0);
  if (e.prev >= 0) join(mask_, clockOf(static_cast<std::uint32_t>(e.prev)));
  if (e.follow >= 0) join(mask_, clockOf(static_cast<std::uint32_t>(e.follow)));
  full_ = mask_;
  if (e.enabler >= 0) join(full_, clockOf(static_cast<std::uint32_t>(e.enabler)));

  // Merge the scanned lanes newest-first.  A candidate covered by mask_, or
  // joined into it as a race partner, ends its lane's scan when it is a
  // write there: everything earlier in the lane happens before it.
  struct Cursor {
    const std::vector<std::uint32_t>* list;
    std::size_t pos;
    int scan;
    bool write;
  };
  Cursor cur[6];
  int ncur = 0;
  bool live[3] = {false, false, false};
  LaneRef scans[3];
  const int nscan = lanesOf(op, /*scan=*/true, scans);
  for (int s = 0; s < nscan; ++s) {
    auto it = lanes_.find(scans[s].key);
    if (it == lanes_.end()) continue;
    live[s] = true;
    cur[ncur++] = Cursor{&it->second.writes, it->second.writes.size(), s, true};
    if (!scans[s].read) {
      cur[ncur++] = Cursor{&it->second.reads, it->second.reads.size(), s, false};
    }
  }
  std::int64_t lastSeen = -1;
  for (;;) {
    Cursor* best = nullptr;
    for (int c = 0; c < ncur; ++c) {
      if (!live[cur[c].scan] || cur[c].pos == 0) continue;
      if (best == nullptr ||
          (*cur[c].list)[cur[c].pos - 1] > (*best->list)[best->pos - 1]) {
        best = &cur[c];
      }
    }
    if (best == nullptr) break;
    const std::uint32_t i = (*best->list)[--best->pos];
    if (i == lastSeen) continue;  // filed under both scanned lanes
    lastSeen = i;
    const EventInfo& ei = info_[i];
    const ThreadId t = stepOf(i).op.thread;
    if (mask_[t] >= ei.local) {
      if (best->write) live[best->scan] = false;
      continue;
    }
    if (!dependent(stepOf(i).op, op)) continue;
    join(full_, clockOf(i));
    // A reversal that may not run is still planted, but does not hide the
    // races behind it: if it cannot run, one of those is the real one.
    const Reversal rev = reversible(i, j);
    if (rev != Reversal::No) races_.emplace_back(i, j);
    if (rev == Reversal::Yes) {
      join(mask_, clockOf(i));
      if (best->write) live[best->scan] = false;
    }
  }
  std::copy(full_.begin(), full_.end(), clockOf(j));
  clockOf(j)[op.thread] = e.local;
}

void ExplorerPolicy::fileEvent(std::uint32_t k) {
  LaneRef files[3];
  const int nfile = lanesOf(stepOf(k).op, /*scan=*/false, files);
  for (int f = 0; f < nfile; ++f) {
    Lane& l = lanes_[files[f].key];
    (files[f].read ? l.reads : l.writes).push_back(k);
  }
}

ExplorerPolicy::Reversal ExplorerPolicy::reversible(std::uint32_t i,
                                                    std::uint32_t j) const {
  // Can j run right before i, with only the events between them that do
  // not happen after i in front of it?  The object j needs is in the state
  // it had before i: every later operation on it happens after i.
  const PendingOpInfo& b = stepOf(j).op;
  const EventInfo& ei = info_[i];
  const auto yes = [](bool r) { return r ? Reversal::Yes : Reversal::No; };
  // j's thread was parked on j's op at i, and whether it was enabled there.
  const bool parked = info_[j].prev < static_cast<std::int32_t>(i);
  const std::vector<PendingOpInfo>& en = path_[ei.node].enabled;
  const bool enabledAtI = parked && std::find(en.begin(), en.end(), b) != en.end();
  switch (b.kind) {
    case OpKind::MutexLock:
    case OpKind::RwRead:
      return yes(ei.holder == kNoThread || ei.holder == b.thread);
    case OpKind::RwWrite: {
      if (ei.holder != kNoThread) return Reversal::No;
      // The read-side events between i and j that do not happen after i
      // still run before j: count the readers they leave.
      std::int64_t readers = ei.readers;
      for (std::uint32_t k = i + 1; k < j; ++k) {
        const PendingOpInfo& o = stepOf(k).op;
        if (readSide(o.kind) && o.object == b.object && !hbBefore(i, k)) {
          readers += o.kind == OpKind::RwRead ? 1 : -1;
        }
      }
      return yes(readers == 0);
    }
    case OpKind::SemAcquire: {
      // The count is unobservable.  An observed zero that bounds it below
      // one at i rules the reversal out: a zero at m > i with at least as
      // many takes as releases between i and m, or a zero at m <= i with no
      // release since.  An acquire at i, or j's own acquire enabled there,
      // proves a permit.  Otherwise it may go either way.
      auto it = sems_.find(b.object);
      if (it != sems_.end()) {
        for (const SemEvent& z : it->second.anchors) {
          if (z.at > i ? z.lo >= ei.lo : z.hi >= ei.hi) return Reversal::No;
        }
      }
      if (stepOf(i).op.kind == OpKind::SemAcquire || enabledAtI) {
        return Reversal::Yes;
      }
      return Reversal::Unknown;
    }
    case OpKind::Join:
      return yes(finishAt_[b.object] >= 0 &&
                 finishAt_[b.object] < static_cast<std::int32_t>(i));
    case OpKind::Sleep: {
      // A sleep expires a fixed number of steps after it was posted (at its
      // thread's previous event).  This run brackets that number: the sleep
      // was still pending at the node before it became enabled.  In the
      // reversal the steps between posting and j are those of the events
      // of v in between.
      const EventInfo& ej = info_[j];
      const auto prev = static_cast<std::uint32_t>(ej.prev);
      const std::uint32_t pending =
          ej.enabler >= 0 ? static_cast<std::uint32_t>(ej.enabler) : prev;
      const std::uint64_t hi = clockAt(pending + 1) - clockAt(prev);
      // It is at least one step past its posting decision(s); and when the
      // runtime jumped time to enable it (every runnable thread asleep), it
      // jumped to exactly this sleep's expiry.
      const bool jumped =
          clockAt(pending + 1) > clockAt(pending) + info_[pending].decisions;
      const std::uint64_t lo =
          jumped ? hi - 1
                 : std::max<std::uint64_t>(clockAt(pending) - clockAt(prev),
                                           info_[prev].decisions);
      std::uint64_t since = prev < i ? clockAt(i) - clockAt(prev) : 0;
      for (std::uint32_t k = std::max(i, prev) + 1; k < j; ++k) {
        if (!hbBefore(i, k)) since += info_[k].decisions;
      }
      if (prev >= i) since += info_[prev].decisions;
      if (since >= hi) return Reversal::Yes;
      return since <= lo ? Reversal::No : Reversal::Unknown;
    }
    default:
      return Reversal::Yes;
  }
}

bool ExplorerPolicy::hbBefore(std::uint32_t a, std::uint32_t b) const {
  return clockOf(b)[stepOf(a).op.thread] >= info_[a].local;
}

ExplorerPolicy::Verdict ExplorerPolicy::weakInitial(
    const PendingOpInfo& q, const std::vector<std::uint32_t>& v,
    std::size_t* at) const {
  // q can start an execution equivalent to one that runs v first: either
  // q's thread runs in v and its first event there happens after nothing
  // earlier in v, or q's thread is absent from v and q commutes with all of
  // it.
  bool commutes = true;
  for (std::size_t f = 0; f < v.size(); ++f) {
    const PendingOpInfo& o = stepOf(v[f]).op;
    if (o.thread == q.thread) {
      for (std::size_t g = 0; g < f; ++g) {
        const bool before =
            v[f] == reversed_
                ? reversedClock_[stepOf(v[g]).op.thread] >= info_[v[g]].local
                : hbBefore(v[g], v[f]);
        if (before) return Verdict::NotInitial;
      }
      *at = f;
      return Verdict::Found;
    }
    if (commutes && dependent(q, o)) commutes = false;
  }
  return commutes ? Verdict::Absent : Verdict::NotInitial;
}

void ExplorerPolicy::plant(std::uint32_t i, std::uint32_t j) {
  // v = the events between i and j that do not happen after i, then j.
  std::vector<std::uint32_t> v;
  for (std::uint32_t k = i + 1; k < j; ++k) {
    if (!hbBefore(i, k)) v.push_back(k);
  }
  // The events of v keep their happens-before order from this run, except
  // j: here it happens after i, and possibly after v's events only through
  // events that follow i.  In v it follows just the events of v it depends
  // on, its own thread's, and what those follow.
  reversed_ = j;
  reversedClock_.assign(threads_, 0);
  const PendingOpInfo& b = stepOf(j).op;
  for (std::uint32_t k : v) {
    const PendingOpInfo& o = stepOf(k).op;
    if (o.thread == b.thread || dependent(o, b) ||
        static_cast<std::int32_t>(k) == info_[j].follow) {
      join(reversedClock_, clockOf(k));
    }
  }
  v.push_back(j);
  Node& nd = path_[info_[i].node];
  std::size_t at = 0;
  // A sleeping op that could start v means v's traces were explored.
  for (const PendingOpInfo& q : nd.sleep) {
    if (weakInitial(q, v, &at) != Verdict::NotInitial) return;
  }
  // Descend through the children that could start what is left of v; a
  // leaf reached that way already covers v.
  std::vector<WakeupNode>* level = &nd.wakeup;
  for (;;) {
    WakeupNode* into = nullptr;
    for (WakeupNode& c : *level) {
      const Verdict w = weakInitial(c.step.op, v, &at);
      if (w == Verdict::NotInitial) continue;
      if (w == Verdict::Found) {
        // A different store observed by the same load is enumerated by the
        // store node c's load creates, so v is covered there.
        const Step& s = stepOf(v[at]);
        if (!(s.op == c.step.op) || s.store != c.step.store) return;
        v.erase(v.begin() + static_cast<std::ptrdiff_t>(at));
      }
      if (c.children.empty()) return;
      into = &c;
      break;
    }
    if (into == nullptr) break;
    level = &into->children;
  }
  if (v.empty()) return;
  level->push_back(WakeupNode{stepOf(v[0]), {}});
  WakeupNode* tail = &level->back();
  for (std::size_t k = 1; k < v.size(); ++k) {
    tail->children.push_back(WakeupNode{stepOf(v[k]), {}});
    tail = &tail->children.back();
  }
}

// --- driver ---------------------------------------------------------------------

ExploreResult Explorer::explore(
    const std::function<void(rt::Runtime&)>& body,
    const std::function<bool(const rt::RunResult&)>& oracle,
    const std::function<void()>& prepare) {
  if (opts_.sleepSets && opts_.preemptionBound >= 0) {
    throw std::invalid_argument(kBoundedDpor);
  }
  auto bugIn = [&](const rt::RunResult& r) {
    return oracle ? oracle(r) : !r.ok();
  };

  ExploreResult result;
  rt::RunOptions opts;
  opts.maxSteps = opts_.maxStepsPerRun;

  // One runtime for the whole search, kept by the caller's tool stack (or
  // by an empty one): each run reinitializes it instead of building one.
  experiment::ToolStack bare;
  experiment::ToolStack& tools = opts_.tools ? *opts_.tools : bare;

  if (opts_.randomWalk) {
    auto rec = std::make_unique<rt::RecordingPolicy>(
        std::make_unique<rt::RandomPolicy>());
    const rt::RecordingPolicy& recorded = *rec;
    rt::Runtime& rt = tools.runtime(RuntimeMode::Controlled, std::move(rec));
    for (std::uint64_t i = 0; i < opts_.maxSchedules; ++i) {
      if (prepare) prepare();
      tools.reset();
      opts.seed = opts_.seed + i;
      rt::RunResult r = rt.run(body, opts);
      ++result.schedules;
      result.totalSteps += r.steps;
      if (r.status == rt::RunStatus::Deadlock) ++result.deadlocks;
      if (bugIn(r)) {
        ++result.oracleFailures;
        if (!result.bugFound) {
          result.bugFound = true;
          result.firstBugSchedule = result.schedules;
          result.counterexample = recorded.schedule();
          result.bugResult = r;
        }
        if (opts_.stopAtFirstBug) return result;
      }
    }
    return result;
  }

  auto owned =
      std::make_unique<ExplorerPolicy>(opts_.preemptionBound, opts_.sleepSets);
  ExplorerPolicy& policy = *owned;
  rt::Runtime& rt = tools.runtime(RuntimeMode::Controlled, std::move(owned));
  for (std::uint64_t i = 0; i < opts_.maxSchedules; ++i) {
    if (prepare) prepare();
    tools.reset();
    opts.seed = opts_.seed;
    rt::RunResult r = rt.run(body, opts);
    result.totalSteps += r.steps;
    if (policy.prunedRun()) {
      // The run hit a fully-slept node: it is Mazurkiewicz-equivalent to an
      // already-explored schedule, so it is discarded — not counted and not
      // oracle-evaluated (its verdicts are covered by explored runs).
      ++result.prunedRuns;
    } else {
      ++result.schedules;
      if (r.status == rt::RunStatus::Deadlock) ++result.deadlocks;
      if (bugIn(r)) {
        ++result.oracleFailures;
        if (!result.bugFound) {
          result.bugFound = true;
          result.firstBugSchedule = result.schedules;
          result.counterexample = policy.lastSchedule();
          result.bugResult = r;
        }
        if (opts_.stopAtFirstBug) return result;
      }
    }
    if (!policy.backtrack()) {
      result.exhausted = !policy.divergenceDetected();
      return result;
    }
  }
  return result;
}

ExploreResult exploreSpec(const experiment::RunSpec& spec,
                          ExploreOptions opts) {
  auto program = suite::makeProgram(spec.programName);
  experiment::ToolStack owned;
  if (opts.tools == nullptr) {
    owned = experiment::makeToolStack(spec.tool);
    opts.tools = &owned;
  }
  if (spec.runOptions) opts.maxStepsPerRun = spec.runOptions->maxSteps;
  if (spec.seedBase != 0) opts.seed = spec.seedBase;
  Explorer ex(opts);
  return ex.explore(
      [&](rt::Runtime& rr) { program->body(rr); },
      [&](const rt::RunResult& r) {
        return program->evaluate(r) == suite::Verdict::BugManifested;
      },
      [&] { program->reset(); });
}

}  // namespace mtt::explore
