// ControlledRuntime: the cooperative, fully deterministic scheduler.
//
// Exactly one managed thread executes at a time.  Every visible operation
// (lock, unlock, wait, signal, semaphore, barrier, variable access, spawn,
// join, yield, sleep, finish) parks the calling thread with a pending-op
// descriptor; the runtime computes the set of *enabled* pending operations
// and asks the SchedulePolicy which one executes next.  Consequences:
//
//  * Determinism: (program, policy, seed) fully determines the run — the
//    substrate for replay (record the decision sequence, re-apply it) and
//    for systematic state-space exploration (enumerate decision sequences).
//  * Deadlock detection for free: if no pending operation is enabled and not
//    every thread has finished, the run is deadlocked; the runtime reports
//    each blocked thread and what it waits on.
//  * Livelock guard: runs abort after RunOptions::maxSteps decisions.
//
// Carrier: every managed thread is a fiber on a guard-paged stack the
// runtime keeps across runs (mapped when a run first needs one more,
// unmapped with the runtime), and all of them run on the OS thread that
// called run().  A parking thread asks the scheduler for the next thread
// and switches straight to it; the last thread to finish switches back to
// run().  On x86-64 the switch is a register swap (fiber_switch_x86_64.S)
// that saves the callee-saved registers, MXCSR and the x87 control word
// and makes no system call; elsewhere it is a ucontext switch.  No OS
// thread is created and no lock or condition variable is touched on the
// turn path.  Consequences for code running in managed threads:
//  * std::this_thread::get_id() and thread_local storage are the caller's;
//    per-managed-thread state must be keyed by currentThread().
//  * The signal mask is the OS thread's, shared by every managed thread
//    (a ucontext carried one per thread); floating-point control modes
//    (rounding, exception masks) are per managed thread.
//  * Shadow stacks (CET SHSTK) are unsupported: the switch keeps none, so
//    a binary linking it is never marked shadow-stack compatible.
//  * Each managed thread has kFiberStackSize bytes of stack; touching the
//    guard page below it is a SIGSEGV.
//  * C++ exception state is per OS thread, so a managed thread must not
//    make runtime calls from inside a catch handler.
// Runtime calls from any other OS thread throw std::logic_error.
//
// Hooks are dispatched on the carrier, in decision order (events are
// therefore totally ordered and listeners need no internal locking in this
// mode); listeners must not call runtime operations from onEvent — noise
// makers use Runtime::postNoise, which is applied before the thread's next
// operation.
// Weak-memory extension (Decision API v3): mtt::mem::Atomic operations are
// visible ops like any other, but an atomic *load* additionally computes its
// observable-store set — the per-location store history filtered by a
// vector-clock happens-before / coherence check — and, when that set has
// more than one element, asks the policy which store to observe
// (SchedulePolicy::pickStore, recorded as a StorePick decision).  The model
// is deliberately a little stronger than C11 (sound for bug hunting: every
// behaviour it produces is C11-allowed):
//  * per-location modification order == execution order of the stores
//    (execution is serialized, so stores are totally ordered anyway);
//  * a load may observe any store S with S.seq >= max(hbFloor, readFloor),
//    where hbFloor is the newest store that happens-before the load and
//    readFloor is the loading thread's per-location coherence floor
//    (advanced by its own reads and stores, inherited across spawn);
//  * observing a release store with an acquire load joins the storer's
//    clock snapshot (relaxed loads defer the join to a later acquire fence);
//  * seq_cst operations additionally join a global SC clock both ways, so
//    all-seq_cst programs always observe the newest store (singleton set =
//    no choice point = byte-identical SC schedules).
#pragma once

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <cstddef>
#include <memory>
#include <unordered_map>

#include "rt/policy.hpp"
#include "rt/runtime.hpp"

namespace mtt::rt {

class ControlledRuntime final : public Runtime {
 public:
  /// Usable stack of every managed thread (above one PROT_NONE guard page).
  static constexpr std::size_t kFiberStackSize = 256 * 1024;

  /// Uses RandomPolicy if none is given.
  explicit ControlledRuntime(std::unique_ptr<SchedulePolicy> policy = nullptr);
  ~ControlledRuntime() override;

  RuntimeMode mode() const override { return RuntimeMode::Controlled; }

  SchedulePolicy& policy() { return *policy_; }
  void setPolicy(std::unique_ptr<SchedulePolicy> p);

  RunResult run(std::function<void(Runtime&)> body,
                const RunOptions& opts) override;

  /// Per-decision provenance of the last run, parallel to a recorded
  /// Schedule: true where the decision scheduled a noise-injected yield or
  /// sleep (Runtime::postNoise), false for the program's own operations.
  /// Projecting the noise decisions out of a recording yields the schedule
  /// of the same run with no noise maker attached (triage's noise-strip).
  const std::vector<bool>& decisionNoise() const { return decisionNoise_; }

  ThreadId spawnThread(std::string name, std::function<void()> fn) override;
  void joinThread(ThreadId target, Site s) override;
  void reapThread(ThreadId target) noexcept override;
  ThreadId currentThread() const override;
  std::string threadName(ThreadId t) const override;
  void yieldNow(Site s) override;
  void sleepFor(std::chrono::microseconds d) override;
  void postNoise(const NoiseRequest& req) override;
  void fail(std::string msg) override;

  void mutexLock(MutexState& m, Site s) override;
  bool mutexTryLock(MutexState& m, Site s) override;
  void mutexUnlock(MutexState& m, Site s) override;
  void condWait(CondState& c, MutexState& m, Site s) override;
  void condSignal(CondState& c, Site s) override;
  void condBroadcast(CondState& c, Site s) override;
  void semAcquire(SemState& sem, Site s) override;
  bool semTryAcquire(SemState& sem, Site s) override;
  void semRelease(SemState& sem, std::uint32_t n, Site s) override;
  void barrierWait(BarrierState& b, Site s) override;
  void rwLockRead(RwState& rw, Site s) override;
  void rwUnlockRead(RwState& rw, Site s) override;
  void rwLockWrite(RwState& rw, Site s) override;
  void rwUnlockWrite(RwState& rw, Site s) override;
  void varAccess(ObjectId var, Access a, Site s) override;
  void evloopPoint(EventKind kind, ObjectId obj, Site s,
                   std::uint32_t arg) override;
  std::uint64_t atomicLoad(AtomicState& a, std::memory_order mo,
                           Site s) override;
  void atomicStore(AtomicState& a, std::uint64_t v, std::memory_order mo,
                   Site s) override;
  std::uint64_t atomicRmw(AtomicState& a, RmwOp op, std::uint64_t operand,
                          std::uint64_t expected, std::memory_order mo, Site s,
                          bool* ok) override;
  void atomicFence(std::memory_order mo, Site s) override;

 private:
  enum class OpCode : std::uint8_t {
    Start,
    Spawn,
    Lock,
    TryLock,
    Unlock,
    CondWait,
    CondSignal,
    CondBroadcast,
    SemAcquire,
    SemTryAcquire,
    SemRelease,
    BarrierArrive,
    RwRead,
    RwWrite,
    RwUnlockR,
    RwUnlockW,
    Join,
    VarAccess,
    EvPoint,  ///< event-loop task boundary (Runtime::evloopPoint)
    AtomicLoad,
    AtomicStore,
    AtomicRmw,
    Fence,
    Yield,
    Sleep,
    Finish,
  };

  struct PendingOp {
    OpCode code = OpCode::Yield;
    MutexState* m = nullptr;
    CondState* c = nullptr;
    RwState* rw = nullptr;
    SemState* sem = nullptr;
    BarrierState* b = nullptr;
    AtomicState* at = nullptr;    ///< Atomic*/Fence state block
    ObjectId var = kNoObject;
    Access access = Access::None;
    ThreadId target = kNoThread;  ///< join target / spawned child
    EventKind evKind = EventKind::Yield;  ///< EvPoint: kind to emit
    Site site{};
    std::uint32_t arg = 0;        ///< sem release count / saved mutex depth
    std::uint64_t wakeStep = 0;   ///< sleep expiry (virtual step)
    std::uint8_t memOrder = 0;    ///< Atomic*/Fence: std::memory_order
    RmwOp rmwOp = RmwOp::Exchange;
    std::uint64_t aval = 0;       ///< store value / RMW operand
    std::uint64_t aexp = 0;       ///< CompareExchange comparand
    bool condResume = false;      ///< Lock is a reacquire after cond wait
    bool everBlocked = false;     ///< op was seen disabled at least once
    bool injected = false;        ///< noise-injected yield/sleep (postNoise)
  };

  enum class St : std::uint8_t {
    Parked,       ///< has a pending op, competing for scheduling
    Running,      ///< executing user code (at most one thread)
    WaitCond,     ///< in a condition wait, not schedulable until signaled
    WaitBarrier,  ///< arrived at a barrier, waiting for the generation
    Finished,
  };

  struct Tcb {
    ThreadId id = kNoThread;
    std::string name;
    St st = St::Parked;
    PendingOp pending{};
    bool tryResult = false;  ///< out-param of TryLock / SemTryAcquire / CAS
    std::uint64_t atomicResult = 0;  ///< out-param of AtomicLoad / AtomicRmw
    NoiseRequest noise{};    ///< posted by listeners, applied at next op
    std::function<void()> body;
    // Carrier: the saved context and its stack, taken from the spares when
    // the thread is first switched to (null before that and once finished).
#if !defined(__x86_64__)
    ucontext_t ctx;
#else
    void* sp = nullptr;  ///< stack pointer while switched out
#endif
    char* stack = nullptr;
    void* tsanFiber = nullptr;  ///< ThreadSanitizer builds only
    // Staging area for a pending Spawn op (per-thread, so concurrent
    // spawners don't clobber each other).
    std::string spawnName;
    std::function<void()> spawnFn;
    // Weak-memory bookkeeping.
    std::vector<std::uint64_t> vc;  ///< vector clock, indexed by ThreadId
    /// Deferred acquire clock: release clocks observed by relaxed loads,
    /// claimed by this thread's next acquire (or stronger) fence.
    std::vector<std::uint64_t> pendingAcq;
    /// Per-atomic coherence floor: modification-order index of the newest
    /// store this thread has observed (read or written).  Inherited across
    /// spawn (spawn is a happens-before edge).
    std::unordered_map<ObjectId, std::uint64_t> readFloor;
    /// A release (or stronger) fence was issued: subsequent relaxed stores
    /// carry release semantics.
    bool releaseFence = false;
  };

  /// One committed store of an atomic location (controlled mode).
  struct AtomicStoreRec {
    std::uint64_t value = 0;
    ThreadId storer = kNoThread;  ///< kNoThread for the initial value
    std::uint64_t stamp = 0;      ///< storer's own clock at the store
    std::uint64_t seq = 0;        ///< per-location modification-order index
    bool release = false;         ///< store had release semantics
    std::vector<std::uint64_t> clock;  ///< storer's clock snapshot
  };

  /// Per-location store history: ascending seq, back() = coherence-newest.
  struct AtomicLoc {
    std::vector<AtomicStoreRec> stores;
    std::uint64_t nextSeq = 1;  // seq 0 is the initial-value pseudo-store
  };

  // The generic gateway for visible operations of the current thread.
  // Applies any posted noise first, parks, schedules, waits for its turn and
  // performs the op.  mayThrow=false is used by operations reachable from
  // destructors (unlock): on abort they return without effect.
  void visibleOp(PendingOp op, bool mayThrow = true, bool applyNoise = true);

  // The *Locked functions read and write scheduler state.  They run only on
  // the carrier, for the thread that holds the turn (or for run() itself).
  Tcb& tcbOf(ThreadId id) const;
  Tcb* currentTcb() const;
  bool enabledLocked(const Tcb& t) const;
  // Policy-facing descriptor of a parked thread's pending operation.
  PendingOpInfo opInfoOf(const Tcb& t) const;
  // Picks the thread that runs next (fast-forwarding virtual time past
  // sleepers).  Returns nullptr when every thread has finished; on deadlock
  // or step limit it begins the abort and returns the first to unwind.
  Tcb* scheduleNextLocked();
  // Hands the turn to the next thread and returns when this thread is
  // scheduled again.  Returns false if the run aborted meanwhile.
  bool park(Tcb& self);
  // Executes self.pending; emits events; may internally block (cond/barrier)
  // and re-schedule.  Returns false if the run aborted mid-operation.
  bool performOpLocked(Tcb& self);
  void beginAbortLocked(RunStatus status);
  // Abort teardown is serialized: threads unwind one at a time in reverse
  // thread-id order (children before their spawners, since ids are assigned
  // in spawn order), so a thread never destroys stack objects that a
  // still-unwinding thread it spawned references.  unwindTargetLocked
  // returns the highest-id unfinished thread, marking threads that never
  // started finished on the way (they have nothing to unwind).
  Tcb* unwindTargetLocked();
  // Switches to the thread whose turn it is to unwind, if that is not self.
  void awaitUnwindTurn(Tcb& self);
  void collectBlockedLocked();
  // Weak-memory helpers.  locOf lazily seeds the history with
  // the initial-value pseudo-store; effectiveOrder applies forceSeqCst and
  // maps consume to acquire.
  AtomicLoc& locOf(AtomicState& a);
  std::memory_order effectiveOrder(std::uint8_t mo) const;
  bool hbVisible(const Tcb& t, const AtomicStoreRec& rec) const;
  std::uint64_t performAtomicLoadLocked(Tcb& self, PendingOp& op);
  void performAtomicStoreLocked(Tcb& self, PendingOp& op);
  std::uint64_t performAtomicRmwLocked(Tcb& self, PendingOp& op);
  void performFenceLocked(Tcb& self, PendingOp& op);
  std::string describeWait(const Tcb& t) const;
  void releaseMutexFullyLocked(MutexState& m);
  // Carrier.  switchTo saves the running context (`from`, or run()'s caller
  // when null) and resumes `to` (the caller when null), starting `to` on a
  // spare stack if it never ran.  A finished `from` leaves for good: its
  // stack goes to spare_ for the next thread this run starts.
  void switchTo(Tcb* from, Tcb* to);
  void startFiber(Tcb& t);
#if !defined(__x86_64__)
  static void fiberEntry(unsigned hi, unsigned lo);
#endif
  [[noreturn]] void trampoline(Tcb& self);
  [[noreturn]] void threadFinish(Tcb& self);
  [[noreturn]] void failLocked(std::string msg);

  std::unique_ptr<SchedulePolicy> policy_;

  std::vector<std::unique_ptr<Tcb>> tcbs_;   // index = id - 1
  /// The unfinished threads in id order: what a decision scans, so its cost
  /// does not grow with the threads a run has already finished.
  std::vector<Tcb*> live_;
#if !defined(__x86_64__)
  ucontext_t callerCtx_;      ///< run()'s caller while a run is on
#else
  void* callerSp_ = nullptr;  ///< run()'s caller while a run is on
#endif
  std::vector<char*> stacks_;  ///< every stack this runtime mapped, in order
  std::vector<char*> spare_;   ///< the stacks no thread of this run holds
  // Sanitizer bookkeeping of the caller's stack (ASan / TSan builds only).
  const void* callerStackBottom_ = nullptr;
  std::size_t callerStackSize_ = 0;
  void* callerTsanFiber_ = nullptr;
  // Per-decision scratch of scheduleNextLocked, kept for its capacity.
  std::vector<ThreadId> enabled_;
  std::vector<PendingOpInfo> ops_;
  ThreadId lastRunning_ = kNoThread;
  bool abort_ = false;
  RunStatus status_ = RunStatus::Completed;
  std::string failureMessage_;
  std::uint64_t steps_ = 0;
  std::uint64_t maxSteps_ = 0;
  std::vector<BlockedThreadInfo> blocked_;
  std::vector<bool> decisionNoise_;
  bool runActive_ = false;
  // Weak-memory state (reset per run).
  std::unordered_map<ObjectId, AtomicLoc> atomics_;
  std::vector<std::uint64_t> scClock_;  ///< global seq_cst order clock
  bool forceSeqCst_ = false;
};

}  // namespace mtt::rt
