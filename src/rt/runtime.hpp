// The instrumented runtime: the substrate every tool in mtt builds on.
//
// The paper assumes a Java bytecode instrumentor that inserts a call at every
// "concurrent location".  C++ has no bytecode layer, so mtt substitutes an
// *instrumented concurrency API*: benchmark programs use mtt primitives
// (Thread, Mutex, CondVar, Semaphore, Barrier, SharedVar) whose every
// operation is an instrumentation point.  Each point (a) emits an Event to
// the registered HookChain and (b) in controlled mode, is a scheduling
// decision where a pluggable SchedulePolicy picks the next thread to run.
//
// Two runtimes implement one interface:
//  * NativeRuntime     — real std::threads under the OS scheduler; hooks run
//    inline on the executing thread (so noise makers can inject real delays).
//    Blocking operations carry a timeout watchdog so that runs of programs
//    with real deadlocks terminate and report instead of hanging.
//  * ControlledRuntime — cooperative serialization: exactly one managed
//    thread runs at a time; every visible operation parks the thread and a
//    SchedulePolicy chooses which enabled pending operation executes next.
//    This gives deterministic, seedable, replayable schedules, built-in
//    deadlock detection (empty enabled set), and is the substrate for the
//    replay and systematic state-space exploration tools.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/event.hpp"
#include "core/ids.hpp"
#include "core/listener.hpp"
#include "core/site.hpp"

namespace mtt::rt {

/// Kind of an instrumented object, for registries and traces.
enum class ObjectKind : std::uint8_t {
  Mutex,
  RwLock,
  CondVar,
  Semaphore,
  Barrier,
  Variable,
  Thread,
  TaskQueue,  ///< an mtt::evloop::EventLoop's ready queue
  Atomic,     ///< an mtt::mem::Atomic<T> cell
};

std::string_view to_string(ObjectKind k);

struct ObjectInfo {
  ObjectKind kind = ObjectKind::Variable;
  std::string name;
};

/// Options controlling one run.
struct RunOptions {
  /// Seed forwarded to the schedule policy (controlled) and available to
  /// listeners via RunInfo (noise makers derive their streams from it).
  std::uint64_t seed = 0;
  /// Controlled mode: abort the run after this many scheduled operations
  /// (livelock guard).
  std::uint64_t maxSteps = 2'000'000;
  /// Native mode: watchdog timeout for blocking operations.  A lock or
  /// condition wait that exceeds it aborts the run and reports a suspected
  /// deadlock / lost wakeup, so native runs of deadlocking programs always
  /// terminate.
  std::chrono::milliseconds blockTimeout{500};
  /// Name reported to listeners in RunInfo.
  std::string programName;
  /// Collect per-listener dispatch time attribution into
  /// RunResult::dispatch (two clock reads per delivery; off by default).
  bool dispatchTiming = false;
  /// Weak-memory control: treat every mtt::mem::Atomic operation as if it
  /// carried std::memory_order_seq_cst.  Under the controlled store-buffer
  /// runtime this collapses every observable-store set to the newest store,
  /// so no StorePick choice points occur and the run is exactly the SC
  /// execution of the same schedule — the "does the bug need weak memory?"
  /// control knob (`mtt hunt --seq-cst`).
  bool forceSeqCst = false;
};

/// Why a run ended.  The first four are produced by the runtimes themselves;
/// the last three are assigned by the mtt::farm campaign engine, which
/// supervises runs from the outside (wall-clock watchdog, forked-worker
/// crash containment, infrastructure retry exhaustion) and records every
/// failure mode as an outcome instead of aborting the campaign.
enum class RunStatus : std::uint8_t {
  Completed,      ///< all managed threads finished
  Deadlock,       ///< controlled: no enabled thread; native: watchdog fired
  AssertFailed,   ///< Runtime::fail / Runtime::check aborted the run
  StepLimit,      ///< controlled: maxSteps exceeded (possible livelock)
  Timeout,        ///< farm: per-run wall-clock watchdog fired
  Crashed,        ///< farm: isolated worker process died (signal/abort)
  InfraError,     ///< farm: harness failure persisted through all retries
};

std::string_view to_string(RunStatus s);

/// One blocked thread in a deadlock report.
struct BlockedThreadInfo {
  ThreadId thread = kNoThread;
  std::string threadName;
  std::string waitingFor;  ///< human-readable: "mutex forks[1]" etc.
  ObjectId object = kNoObject;
};

/// Result of one run.
struct RunResult {
  RunStatus status = RunStatus::Completed;
  std::string failureMessage;  ///< set when status == AssertFailed
  std::uint64_t events = 0;    ///< instrumentation points executed
  std::uint64_t steps = 0;     ///< controlled: scheduling decisions taken
  double wallSeconds = 0.0;
  std::vector<BlockedThreadInfo> blocked;  ///< deadlock participants
  /// Hook-chain observability: per-kind event counts (always), plus
  /// per-listener time attribution when RunOptions::dispatchTiming was set.
  DispatchStats dispatch;

  bool ok() const { return status == RunStatus::Completed; }
  bool deadlocked() const { return status == RunStatus::Deadlock; }
};

/// Thrown by runtime operations to unwind managed threads when a run aborts
/// (deadlock detected, assertion failed, step limit).  Benchmark programs
/// must let it propagate (they do; it is caught by the thread trampoline).
struct RunAborted {};

// ---------------------------------------------------------------------------
// Primitive state blocks.  Primitives (rt/primitives.hpp) own one of these
// and pass it to the runtime; each block carries both the native
// implementation object and the bookkeeping fields the controlled scheduler
// uses (the latter are only touched under the scheduler lock).
// ---------------------------------------------------------------------------

struct MutexState {
  ObjectId id = kNoObject;
  bool recursive = false;
  // Native mode.  nativeOwner/nativeDepth implement recursion on top of the
  // timed mutex (nativeDepth is only touched by the owning thread).
  std::timed_mutex native;
  std::atomic<ThreadId> nativeOwner{kNoThread};
  std::uint32_t nativeDepth = 0;
  // Controlled mode (scheduler lock protects).
  ThreadId owner = kNoThread;
  std::uint32_t depth = 0;
  // Weak-memory bookkeeping: join of every releaser's vector clock, so the
  // store-buffer runtime sees lock-protected publication as happens-before.
  std::vector<std::uint64_t> relClock;
};

struct CondState {
  ObjectId id = kNoObject;
  // Native mode.
  std::condition_variable_any native;
  // Controlled mode: waiting thread ids, FIFO.
  std::deque<ThreadId> waiters;
};

struct RwState {
  ObjectId id = kNoObject;
  // Native mode.
  std::shared_timed_mutex native;
  // Controlled mode (scheduler lock protects).
  ThreadId writer = kNoThread;
  std::uint32_t readers = 0;
  // Weak-memory bookkeeping: writer releases publish to relClockW, reader
  // releases to relClockR; writers acquire both, readers acquire relClockW.
  std::vector<std::uint64_t> relClockW;
  std::vector<std::uint64_t> relClockR;
};

struct SemState {
  ObjectId id = kNoObject;
  // Shared counter; in native mode guarded by nm, in controlled mode by the
  // scheduler lock.
  std::int64_t permits = 0;
  // Native mode.
  std::mutex nm;
  std::condition_variable ncv;
  // Controlled mode, weak-memory bookkeeping (scheduler lock protects).
  std::vector<std::uint64_t> relClock;
};

struct BarrierState {
  ObjectId id = kNoObject;
  std::uint32_t parties = 0;
  std::uint32_t arrived = 0;
  std::uint64_t generation = 0;
  // Native mode.
  std::mutex nm;
  std::condition_variable ncv;
  // Controlled mode, weak-memory bookkeeping (scheduler lock protects):
  // join of every arriver's vector clock this generation.
  std::vector<std::uint64_t> clock;
};

/// State block of one mtt::mem::Atomic<T> cell.  The wrapper owns it and
/// funnels every operation through Runtime::atomic*(); values travel as raw
/// 64-bit images (the wrapper memcpys T in and out).
struct AtomicState {
  ObjectId id = kNoObject;
  /// Initial value; seeds the store history in controlled mode.
  std::uint64_t init = 0;
  // Native mode: the real cell, operated on with the caller's memory order.
  std::atomic<std::uint64_t> native{0};
  // Controlled mode (scheduler lock protects): the coherence-newest value.
  // The per-location store *history* — what weak loads may still observe —
  // lives inside ControlledRuntime, keyed by id.
  std::uint64_t value = 0;
};

/// Read-modify-write flavours of mtt::mem::Atomic.  Every RMW reads the
/// coherence-newest store (atomicity), so RMWs are never StorePick choice
/// points.
enum class RmwOp : std::uint8_t {
  Exchange,         ///< unconditionally store the operand, return the old value
  FetchAdd,         ///< store old + operand, return the old value
  CompareExchange,  ///< store the operand iff old == expected
};

/// Packing of the `Event::arg` payload of the EventMask::atomics() kinds:
/// bits 0-2 the std::memory_order the program wrote, bit 3 a per-kind flag
/// (load: the observation is synchronized — the store's release clock was
/// acquired, or the store already happens-before the loader; store: the
/// store has release semantics; RMW: the compare-exchange succeeded), bits 4-11
/// the observable-store index the load picked (0 = coherence-newest, i.e.
/// the SC value), bits 12-31 the storing thread observed by a load/RMW.
struct AtomicArg {
  static constexpr std::uint32_t pack(std::memory_order mo, bool flag,
                                      std::uint32_t age, ThreadId storer) {
    return (static_cast<std::uint32_t>(mo) & 0x7u) |
           (flag ? 0x8u : 0u) |
           ((age > 0xffu ? 0xffu : age) << 4) |
           ((storer & 0xfffffu) << 12);
  }
  static constexpr std::memory_order order(std::uint32_t arg) {
    return static_cast<std::memory_order>(arg & 0x7u);
  }
  static constexpr bool flag(std::uint32_t arg) { return (arg & 0x8u) != 0; }
  static constexpr std::uint32_t age(std::uint32_t arg) {
    return (arg >> 4) & 0xffu;
  }
  static constexpr ThreadId storer(std::uint32_t arg) {
    return static_cast<ThreadId>(arg >> 12);
  }
};

// ---------------------------------------------------------------------------
// Runtime interface.
// ---------------------------------------------------------------------------

class Runtime {
 public:
  virtual ~Runtime() = default;

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  virtual RuntimeMode mode() const = 0;

  /// The hook chain: tools register here before run().
  HookChain& hooks() { return hooks_; }

  /// Optional event filter: when set, events for which it returns false are
  /// not dispatched to listeners (the operation itself still executes).
  /// This is the "static analysis decides on a subset of the points to be
  /// instrumented" flow of Section 3 of the paper.
  void setEventFilter(std::function<bool(const Event&)> f) {
    filter_ = std::move(f);
  }

  /// Executes `body` as the managed main thread (ThreadId 1) and returns
  /// when every managed thread has finished or the run aborted.  A runtime
  /// runs any number of times, one run at a time.  Each run starts with an
  /// empty object registry, so it numbers its objects exactly as a fresh
  /// runtime would; resolve a run's object names before the next run.
  virtual RunResult run(std::function<void(Runtime&)> body,
                        const RunOptions& opts) = 0;

  // --- thread operations (called by the Thread wrapper / program code) ----
  virtual ThreadId spawnThread(std::string name,
                               std::function<void()> fn) = 0;
  virtual void joinThread(ThreadId target, Site s) = 0;
  /// Called by ~Thread for threads that were never joined: blocks until the
  /// target has finished, so stack objects shared with it stay alive while
  /// it unwinds.  Never throws (it runs from destructors during aborts).
  virtual void reapThread(ThreadId target) noexcept = 0;
  virtual ThreadId currentThread() const = 0;
  /// Resolves a managed thread's name ("main", or the name given at spawn).
  virtual std::string threadName(ThreadId t) const = 0;
  /// A scheduling point with no effect on program state; noise makers call
  /// this to perturb the interleaving.
  virtual void yieldNow(Site s) = 0;
  /// Native: real sleep.  Controlled: the thread is not schedulable for
  /// roughly `d` virtual ticks (1 tick per scheduled operation), so
  /// sleep-based "synchronization" misbehaves under adversarial schedules
  /// exactly as the paper describes.
  virtual void sleepFor(std::chrono::microseconds d) = 0;

  // --- noise injection ------------------------------------------------------
  /// How a noise maker asks the runtime to perturb the current thread.
  /// Listeners must use this (not yieldNow/sleepFor) from onEvent: in
  /// controlled mode hooks are dispatched under the scheduler lock, so
  /// re-entering a scheduling operation would self-deadlock.  The request is
  /// applied right before the thread's next visible operation (controlled)
  /// or immediately after hook dispatch (native).
  struct NoiseRequest {
    enum class Kind : std::uint8_t { None, Yield, Sleep };
    Kind kind = Kind::None;
    /// Yield: number of yields.  Sleep: virtual ticks (controlled) or
    /// microseconds (native).
    std::uint32_t amount = 0;
  };
  virtual void postNoise(const NoiseRequest& req) = 0;

  // --- failure reporting --------------------------------------------------
  /// Records the first failure message and aborts the run.
  virtual void fail(std::string msg) = 0;
  /// fail(msg) unless cond holds.
  void check(bool cond, std::string_view msg) {
    if (!cond) fail(std::string(msg));
  }

  // --- object registry ----------------------------------------------------
  ObjectId registerObject(ObjectKind kind, std::string name);
  ObjectInfo objectInfo(ObjectId id) const;
  std::size_t objectCount() const;

  // --- primitive operations (called by rt/primitives.hpp) -----------------
  virtual void mutexLock(MutexState& m, Site s) = 0;
  virtual bool mutexTryLock(MutexState& m, Site s) = 0;
  virtual void mutexUnlock(MutexState& m, Site s) = 0;
  virtual void condWait(CondState& c, MutexState& m, Site s) = 0;
  virtual void condSignal(CondState& c, Site s) = 0;
  virtual void condBroadcast(CondState& c, Site s) = 0;
  virtual void semAcquire(SemState& sem, Site s) = 0;
  virtual bool semTryAcquire(SemState& sem, Site s) = 0;
  virtual void semRelease(SemState& sem, std::uint32_t n, Site s) = 0;
  virtual void barrierWait(BarrierState& b, Site s) = 0;
  virtual void rwLockRead(RwState& rw, Site s) = 0;
  virtual void rwUnlockRead(RwState& rw, Site s) = 0;
  virtual void rwLockWrite(RwState& rw, Site s) = 0;
  virtual void rwUnlockWrite(RwState& rw, Site s) = 0;
  /// Instrumentation for a shared-variable access; the actual load/store is
  /// performed by SharedVar around this call.
  virtual void varAccess(ObjectId var, Access a, Site s) = 0;
  /// Instrumentation point for an event-loop task boundary (mtt::evloop).
  /// `kind` must be one of the EventMask::evloop() kinds; `obj` is the loop's
  /// registered TaskQueue object and `arg` the task id.  Controlled mode
  /// parks the thread like any visible operation (so the schedule policy
  /// decides when the boundary executes); native mode runs pre-op gates and
  /// emits inline, so noise makers can jitter callback dispatch.
  virtual void evloopPoint(EventKind kind, ObjectId obj, Site s,
                           std::uint32_t arg = 0) = 0;

  // --- instrumented atomics (called by mem/atomic.hpp) --------------------
  /// Atomic load with the given memory order; returns the observed value.
  /// Controlled mode computes the observable-store set and may consult the
  /// schedule policy (a StorePick choice point); native mode performs the
  /// real std::atomic load.
  virtual std::uint64_t atomicLoad(AtomicState& a, std::memory_order mo,
                                   Site s) = 0;
  /// Atomic store with the given memory order.
  virtual void atomicStore(AtomicState& a, std::uint64_t v,
                           std::memory_order mo, Site s) = 0;
  /// Read-modify-write: returns the value read (the coherence-newest store).
  /// For CompareExchange, `expected` is the comparand and `*ok` (when
  /// non-null) receives whether the store happened; other flavours always
  /// store and set *ok = true.
  virtual std::uint64_t atomicRmw(AtomicState& a, RmwOp op,
                                  std::uint64_t operand,
                                  std::uint64_t expected, std::memory_order mo,
                                  Site s, bool* ok = nullptr) = 0;
  /// Standalone memory fence with the given order.
  virtual void atomicFence(std::memory_order mo, Site s) = 0;

 protected:
  Runtime() = default;

  /// Builds an Event (assigning the next sequence number), applies the
  /// filter, and dispatches to hooks.  Returns the assigned sequence number.
  std::uint64_t emit(EventKind kind, ThreadId thread, ObjectId object, Site s,
                     std::uint32_t arg = 0);

  std::uint64_t eventCount() const {
    return seq_.load(std::memory_order_relaxed);
  }
  void resetEventCount() { seq_.store(0, std::memory_order_relaxed); }
  /// Empties the object registry (the runtimes call it at run start).
  void resetObjects() {
    std::lock_guard<std::mutex> lk(objMu_);
    objects_.clear();
  }

  HookChain hooks_;
  std::function<bool(const Event&)> filter_;

 private:
  std::atomic<std::uint64_t> seq_{0};
  mutable std::mutex objMu_;
  std::vector<ObjectInfo> objects_;  // index 0 reserved (kNoObject)
};

}  // namespace mtt::rt
