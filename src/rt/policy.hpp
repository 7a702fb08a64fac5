// Schedule policies for the controlled runtime.
//
// At every visible operation the controlled runtime asks its SchedulePolicy
// which enabled pending operation executes next.  Policies are the place
// where "the behaviour of other possible schedulers" (paper, Section 2.2) is
// simulated:
//  * RoundRobinPolicy — the deterministic scheduler of "the simple conditions
//    of unit testing" where "executing the same tests repeatedly does not
//    help"; it runs a thread until it blocks, yields or finishes.
//  * RandomPolicy     — a uniformly random scheduler; every decision point
//    picks uniformly among enabled threads.
//  * PriorityPolicy   — PCT (Probabilistic Concurrency Testing): random
//    thread priorities plus d priority-change points over an adaptively
//    estimated run length k.
//  * POSPolicy        — Partial Order Sampling: per-*operation* random
//    priorities, reassigned for racing (dependent) operations.
//  * RecordingPolicy  — decorator capturing the decision sequence (the
//    record phase of replay).
//  * ReplayPolicy     — re-applies a recorded decision sequence (the playback
//    phase); detects divergence.
// Systematic exploration drives its own policy (mtt::explore::ExplorerPolicy).
//
// Choice-point API v2: alongside the enabled thread ids, PickContext carries
// a PendingOpInfo descriptor per enabled thread (abstract operation kind +
// object id) and the independent() predicate over descriptors — the
// information POS, sleep-set pruning, and other partial-order-aware
// algorithms need.
//
// Decision API v3 (weak memory): a schedule is no longer a bare ThreadId
// vector.  Under the store-buffer runtime an atomic load whose
// observable-store set has several elements is itself a choice point, so a
// recorded run interleaves two decision kinds: ThreadPick (which enabled
// thread runs) and StorePick (which observable store a load reads).  Both
// are carried by the tagged Decision type below; policies answer StorePicks
// via pickStore(), which defaults to "observe the coherence-newest store" —
// exactly sequentially-consistent behaviour — so SC-only programs record
// zero StorePicks and every pre-v3 schedule, scenario file, and journal
// stays byte-identical.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/ids.hpp"
#include "core/rng.hpp"

namespace mtt::rt {

/// Abstract kind of the operation an enabled thread is about to perform.
/// This is the policy-facing projection of the runtime's internal pending-op
/// descriptor: enough structure to reason about commutativity, nothing about
/// call sites or runtime internals.
enum class OpKind : std::uint8_t {
  ThreadStart,   ///< first scheduling of a spawned thread
  Spawn,         ///< about to create a thread (assigns the next ThreadId)
  MutexLock,     ///< object = mutex
  MutexTryLock,  ///< object = mutex
  MutexUnlock,   ///< object = mutex
  CondWait,      ///< object = condvar, object2 = the mutex it releases
  CondSignal,    ///< object = condvar
  CondBroadcast, ///< object = condvar
  SemAcquire,    ///< object = semaphore
  SemTryAcquire, ///< object = semaphore
  SemRelease,    ///< object = semaphore
  BarrierArrive, ///< object = barrier
  RwRead,        ///< object = rwlock (shared acquire)
  RwWrite,       ///< object = rwlock (exclusive acquire)
  RwUnlockRead,  ///< object = rwlock
  RwUnlockWrite, ///< object = rwlock
  Join,          ///< object = joined ThreadId
  VarRead,       ///< object = instrumented variable
  VarWrite,      ///< object = instrumented variable
  Task,          ///< event-loop task boundary; object = loop/queue id
  AtomicLoad,    ///< object = instrumented atomic
  AtomicStore,   ///< object = instrumented atomic
  AtomicRMW,     ///< object = instrumented atomic
  Fence,         ///< standalone memory fence (no object)
  Yield,         ///< voluntary yield (including injected noise)
  Sleep,         ///< sleep expiry (including injected noise)
  Finish,        ///< thread about to finish
};

const char* to_string(OpKind k);

/// Pending-operation descriptor for one enabled thread at a choice point.
struct PendingOpInfo {
  ThreadId thread = kNoThread;
  OpKind kind = OpKind::Yield;
  /// Primary object the operation touches (mutex/condvar/semaphore/barrier/
  /// rwlock/variable/queue id, or the target ThreadId for Join).  kNoObject
  /// for purely thread-local operations (yield, sleep, start, finish).
  ObjectId object = kNoObject;
  /// Secondary object: CondWait's released mutex; kNoObject otherwise.
  ObjectId object2 = kNoObject;

  friend bool operator==(const PendingOpInfo&, const PendingOpInfo&) = default;
};

/// "MutexLock(m3)", "SemAcquire(s1)", "Task(q7)", "Yield" — for logs/tests.
std::string describe(const PendingOpInfo& op);

/// Conservative independence (commutativity) predicate: true only when
/// executing `a` then `b` provably reaches the same state as `b` then `a`.
/// Operations of the same thread are never independent; object-scoped
/// operations are independent when their object sets are disjoint, or when
/// they share an object with compatible (read-read) access; thread-local
/// operations are independent with everything except the pairs that move
/// shared scheduler state (Spawn/Spawn id assignment, Finish vs. its Join).
bool independent(const PendingOpInfo& a, const PendingOpInfo& b);

/// Context handed to a policy at each decision point.
struct PickContext {
  /// Enabled pending operations, as thread ids sorted ascending.  Never
  /// empty when pick() is called.
  std::span<const ThreadId> enabled;
  /// Pending-operation descriptors parallel to `enabled` (ops[i] describes
  /// enabled[i]'s next operation).  May be empty for hand-built contexts;
  /// operation-aware policies must degrade gracefully then.
  std::span<const PendingOpInfo> ops;
  /// Thread that executed the previous operation (kNoThread at run start).
  ThreadId current = kNoThread;
  /// True when `current` is enabled and its pending operation is an explicit
  /// yield/sleep-expiry — i.e. the thread itself requested descheduling.
  bool currentYielding = false;
  /// Scheduling decisions taken so far in this run.
  std::uint64_t step = 0;

  /// Descriptor of thread `t`, or nullptr when descriptors are absent.
  const PendingOpInfo* opOf(ThreadId t) const {
    for (const PendingOpInfo& o : ops) {
      if (o.thread == t) return &o;
    }
    return nullptr;
  }
};

/// One observable store an atomic load may read, as shown to policies.
/// Options are ordered newest-first: options[0] is the coherence-newest
/// store — the value sequential consistency would deliver — and higher
/// indices are progressively staler stores still admitted by the runtime's
/// happens-before / coherence filter.
struct StoreOption {
  ThreadId storer = kNoThread;  ///< thread that performed the store
  std::uint64_t value = 0;      ///< stored value (raw 64-bit image)
  std::uint64_t stamp = 0;      ///< storer-local timestamp of the store
};

/// Context handed to a policy at a store-choice point: an atomic load whose
/// observable-store set has more than one element under the weak-memory
/// runtime.  Loads with a singleton set never consult the policy, so SC-only
/// programs see no store-choice points at all.
struct StorePickContext {
  ObjectId object = kNoObject;  ///< the atomic object being loaded
  ThreadId thread = kNoThread;  ///< the loading thread
  /// Observable stores, newest first; always size() >= 2 when a policy is
  /// consulted.
  std::span<const StoreOption> options;
  /// Scheduling decisions taken so far in this run (ThreadPicks and
  /// StorePicks combined).
  std::uint64_t step = 0;
};

class SchedulePolicy {
 public:
  virtual ~SchedulePolicy() = default;
  /// Called once at the start of each run with the run's seed.
  virtual void onRunStart(std::uint64_t seed) { (void)seed; }
  /// Returns the thread whose pending operation executes next; must be a
  /// member of ctx.enabled.
  virtual ThreadId pick(const PickContext& ctx) = 0;
  /// Returns the index into ctx.options of the store the pending atomic
  /// load observes.  The default — index 0, the coherence-newest store — is
  /// exactly sequentially-consistent behaviour, so policies that predate the
  /// weak-memory runtime remain correct (and deterministic) unchanged.
  virtual std::uint32_t pickStore(const StorePickContext& ctx) {
    (void)ctx;
    return 0;
  }
  virtual void onRunEnd() {}
};

/// Deterministic cooperative scheduler: keeps running the current thread
/// while it is enabled and not yielding; otherwise the lowest-id enabled
/// thread strictly greater than current (wrapping).  Models the
/// "deterministic scheduler" of naive unit testing.
class RoundRobinPolicy final : public SchedulePolicy {
 public:
  ThreadId pick(const PickContext& ctx) override;
};

/// Uniformly random choice among enabled threads at every decision point.
class RandomPolicy final : public SchedulePolicy {
 public:
  /// With probability (1 - switchProbability) the current thread continues
  /// when enabled; 1.0 means a fully uniform pick at every point.
  explicit RandomPolicy(double switchProbability = 1.0)
      : switchProb_(switchProbability) {}
  void onRunStart(std::uint64_t seed) override { rng_ = Rng(seed); }
  ThreadId pick(const PickContext& ctx) override;
  /// Uniform draw over the observable stores (weak-memory choice points).
  std::uint32_t pickStore(const StorePickContext& ctx) override;

 private:
  double switchProb_;
  Rng rng_{0};
};

/// PCT (Probabilistic Concurrency Testing) priority scheduler: assigns
/// random priorities to threads and always runs the highest-priority enabled
/// thread; at d random decision points, the running thread's priority is
/// dropped below everyone else's.  For a bug of depth d, PCT guarantees a
/// manifestation probability of at least 1/(n·k^(d-1)) per run — provided
/// the change points are drawn from the actual run length k.
///
/// k handling (the "true PCT" part): with expectedSteps == 0 (the default)
/// the run-length estimate is adaptive — the draw window starts at 64,
/// doubles mid-run whenever the run outlives it (the remaining change points
/// are re-spread over the extension instead of degenerating into an
/// immediate burst), and onRunEnd() folds the observed run length into the
/// estimate the next run driven by this instance draws from.  A nonzero
/// expectedSteps pins k (the `pct:d=D,k=K` spelling).
class PriorityPolicy final : public SchedulePolicy {
 public:
  /// changePoints is PCT's d parameter (bug depth to target); expectedSteps
  /// is PCT's k, 0 meaning "estimate adaptively from prior runs".
  explicit PriorityPolicy(int changePoints = 3,
                          std::uint64_t expectedSteps = 0)
      : changePoints_(changePoints), fixedWindow_(expectedSteps) {}
  void onRunStart(std::uint64_t seed) override;
  ThreadId pick(const PickContext& ctx) override;
  /// Uniform draw over the observable stores (weak-memory choice points).
  std::uint32_t pickStore(const StorePickContext& ctx) override;
  void onRunEnd() override;

  /// Current run-length estimate k (the next run's draw window).
  std::uint64_t runLengthEstimate() const {
    return fixedWindow_ != 0 ? fixedWindow_ : estimate_;
  }

 private:
  int changePoints_;
  Rng rng_{0};
  std::vector<std::uint64_t> priority_;  // indexed by ThreadId
  std::vector<std::uint64_t> changeAt_;  // steps at which to deprioritize
  std::uint64_t nextPriority_ = 0;
  std::uint64_t fixedWindow_;     // explicit k; 0 = adaptive
  std::uint64_t estimate_ = 64;   // adaptive k, learned across runs
  std::uint64_t window_ = 64;     // draw window of the current run
  std::uint64_t lastStep_ = 0;    // highest step seen this run
  std::uint64_t priorityFor(ThreadId t);
};

/// Partial Order Sampling (POS): every pending *operation* — not thread —
/// carries a uniformly random priority, and the highest-priority enabled
/// operation executes.  After each decision the executed operation's
/// priority is discarded (its thread's next operation draws fresh) and every
/// enabled operation racing with it (dependent per independent()) is
/// reassigned a fresh priority.  Reassignment is what gives POS its
/// near-uniform coverage of partial orders: the ordering of each racing pair
/// is re-randomized every time the race is about to resolve, instead of
/// being frozen by one priority draw at spawn time.  Degrades to a uniform
/// random pick when the context carries no operation descriptors.
class POSPolicy final : public SchedulePolicy {
 public:
  void onRunStart(std::uint64_t seed) override;
  ThreadId pick(const PickContext& ctx) override;
  /// Uniform draw over the observable stores (weak-memory choice points).
  std::uint32_t pickStore(const StorePickContext& ctx) override;

 private:
  std::uint64_t freshPriority();
  Rng rng_{0};
  std::vector<std::uint64_t> prio_;          // by ThreadId: pending op's prio
  std::vector<PendingOpInfo> assignedFor_;   // op the priority was drawn for
};

/// One recorded scheduling decision — the tagged unit of the Decision API.
///
/// ThreadPick carries the ThreadId whose pending operation executed;
/// StorePick carries the index into the observable-store set (newest first,
/// so 0 means "the SC value") an atomic load observed.  The controlled
/// runtime is deterministic given the same program and decision sequence, so
/// a vector of these is a complete schedule representation ("scenario" in
/// the paper's state-space-exploration terminology).
struct Decision {
  enum class Kind : std::uint8_t { ThreadPick, StorePick };
  Kind kind = Kind::ThreadPick;
  /// ThreadId for ThreadPick; observable-store index (0 = newest) for
  /// StorePick.
  std::uint32_t value = kNoThread;

  static constexpr Decision thread(ThreadId t) {
    return Decision{Kind::ThreadPick, t};
  }
  static constexpr Decision store(std::uint32_t age) {
    return Decision{Kind::StorePick, age};
  }
  constexpr bool isThread() const { return kind == Kind::ThreadPick; }
  constexpr bool isStore() const { return kind == Kind::StorePick; }

  friend constexpr bool operator==(const Decision&, const Decision&) = default;
};

/// The recorded decision sequence of one run.
struct Schedule {
  std::vector<Decision> decisions;
  bool empty() const { return decisions.empty(); }
  std::size_t size() const { return decisions.size(); }

  /// True when every decision is a ThreadPick — an SC-only schedule, which
  /// serializes in the pre-weak-memory scenario format byte-identically.
  bool threadPicksOnly() const;
  /// Thread ids of the ThreadPick decisions in order (StorePicks skipped).
  std::vector<ThreadId> threadPicks() const;
  /// Builds an SC-only schedule from bare thread ids.
  static Schedule fromThreads(const std::vector<ThreadId>& ids);
};

/// Decorator: forwards to an inner policy and records every decision (thread
/// picks and store picks, interleaved in the order the runtime asked).
class RecordingPolicy final : public SchedulePolicy {
 public:
  explicit RecordingPolicy(std::unique_ptr<SchedulePolicy> inner)
      : inner_(std::move(inner)) {}
  void onRunStart(std::uint64_t seed) override;
  ThreadId pick(const PickContext& ctx) override;
  std::uint32_t pickStore(const StorePickContext& ctx) override;
  void onRunEnd() override { inner_->onRunEnd(); }
  const Schedule& schedule() const { return schedule_; }

 private:
  std::unique_ptr<SchedulePolicy> inner_;
  Schedule schedule_;
};

/// Replays a recorded schedule.  If the recorded decision does not fit the
/// choice point the runtime presents — the thread is not enabled, the
/// decision kinds misalign (a ThreadPick where the runtime asks for a store,
/// or vice versa), a StorePick index is out of range, or the schedule is
/// exhausted while the run continues — the policy marks divergence and falls
/// back to round-robin / observe-newest so the run still terminates.
class ReplayPolicy final : public SchedulePolicy {
 public:
  explicit ReplayPolicy(Schedule schedule) : schedule_(std::move(schedule)) {}
  void onRunStart(std::uint64_t seed) override;
  ThreadId pick(const PickContext& ctx) override;
  std::uint32_t pickStore(const StorePickContext& ctx) override;
  bool diverged() const { return diverged_; }
  /// Step at which divergence occurred (meaningful only when diverged()).
  std::uint64_t divergenceStep() const { return divergenceStep_; }

 private:
  Schedule schedule_;
  std::size_t next_ = 0;
  bool diverged_ = false;
  std::uint64_t divergenceStep_ = 0;
  RoundRobinPolicy fallback_;
};

/// Non-owning adapter: lets a caller keep ownership of a policy (e.g. to
/// read a RecordingPolicy's schedule after the run) while the runtime holds
/// only this forwarding shim.
class PolicyRef final : public SchedulePolicy {
 public:
  explicit PolicyRef(SchedulePolicy& p) : p_(&p) {}
  void onRunStart(std::uint64_t seed) override { p_->onRunStart(seed); }
  ThreadId pick(const PickContext& ctx) override { return p_->pick(ctx); }
  std::uint32_t pickStore(const StorePickContext& ctx) override {
    return p_->pickStore(ctx);
  }
  void onRunEnd() override { p_->onRunEnd(); }

 private:
  SchedulePolicy* p_;
};

}  // namespace mtt::rt
