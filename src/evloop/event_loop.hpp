// mtt::evloop — the instrumented event-loop runtime.
//
// Production event-driven systems (libuv/Node, cooperative tasklet kernels)
// keep their concurrency in *callbacks* multiplexed onto one or a few
// scheduler threads; the interesting nondeterminism is which ready callback
// fires next, not which OS thread runs.  EventLoop brings that model into
// the mtt benchmark: tasks are plain callbacks posted to a loop, optionally
// deferred by a virtual-tick timer, and executed on a fixed number of
// scheduler slots (default 1: classic run-to-completion event-loop
// atomicity — callbacks never overlap, only interleave *between* callbacks).
//
// Every task boundary is routed through the Runtime as an instrumentation
// point, using NodeFz's exact yield-point inventory:
//
//   TaskPost   — post()/postDelayed() accepted the callback
//   TimerFire  — a deferred callback's delay elapsed (after rt::sleepFor)
//   QueuePut   — the callback entered the ready queue
//   QueueTake  — the callback was taken off the ready queue
//   TaskBegin  — the callback is about to run on a scheduler slot
//   TaskEnd    — the callback returned; the slot is about to be released
//
// Mechanically, each posted callback becomes a *tasklet*: a managed runtime
// thread whose whole body is put → acquire a scheduler slot (rt::Semaphore
// with `schedulers` permits) → take/begin → callback → end → release.  The
// slot acquire is the dispatch point: under ControlledRuntime every ready
// tasklet is a blocked semAcquire and the SchedulePolicy's thread pick *is*
// the choice of which ready callback fires next — so recording, replay,
// shrinking, exploration, guided campaigns and farm/fleet distribution all
// work on event-loop programs with zero changes (a schedule is still just a
// decision vector of thread ids).  Under NativeRuntime the tasklets are real
// threads racing for the slot semaphore and noise makers jitter the evloop
// events like any other kind.
//
// Callbacks must not block (no joins, no condition waits — they occupy a
// scheduler slot) and must not throw; they may freely post() more work,
// including from inside a callback.  drain() blocks the calling non-callback
// thread until every accepted task has finished.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "rt/primitives.hpp"
#include "rt/runtime.hpp"

namespace mtt::evloop {

/// Uninstrumented counters for oracles and benchmarks; read them after
/// drain() (they are not synchronization).
struct LoopStats {
  std::uint64_t posted = 0;      ///< tasks accepted (post + postDelayed)
  std::uint64_t executed = 0;    ///< callbacks that ran to completion
  std::uint64_t timersFired = 0; ///< deferred callbacks whose delay elapsed
  std::uint32_t maxQueueDepth = 0;  ///< high-water mark of ready callbacks
};

class EventLoop {
 public:
  using Task = std::function<void()>;

  /// `schedulers` is the number of callbacks allowed to run concurrently
  /// (the loop's scheduler-thread count); 1 gives run-to-completion
  /// semantics.  The loop registers itself as a TaskQueue object named
  /// `name`, so traces and the flight recorder label its events.
  EventLoop(rt::Runtime& rt, std::string name, std::uint32_t schedulers = 1);

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Blocks until every tasklet has finished (never throws: it runs during
  /// the stack unwinding of aborted runs, like rt::Thread's destructor).
  ~EventLoop();

  /// Schedules `fn` to run on a scheduler slot.  Returns the task id (also
  /// the `arg` of the task's events).  Callable from any managed thread,
  /// including from inside a callback.
  std::uint32_t post(Task fn, Site s = site());

  /// Schedules `fn` to become ready only after `delayTicks` of virtual time
  /// (controlled: scheduling steps; native: 100µs per tick) — the loop's
  /// timer primitive.  Fires TimerFire when the delay elapses.
  std::uint32_t postDelayed(Task fn, std::uint32_t delayTicks,
                            Site s = site());

  /// Blocks until all accepted tasks (including ones posted while draining)
  /// have finished.  Must not be called from inside a callback of this loop
  /// (the callback occupies a slot the drain would wait on); doing so is
  /// reported via Runtime::fail.
  void drain(Site s = site());

  /// True when the calling managed thread is inside a callback of this loop.
  bool inCallback() const;

  std::uint32_t schedulers() const { return schedulers_; }
  ObjectId id() const { return id_; }
  const std::string& name() const { return name_; }
  LoopStats stats() const;

 private:
  void runTask(Task fn, std::uint32_t taskId, std::uint32_t delayTicks,
               Site s);
  void spawnTasklet(Task fn, std::uint32_t taskId, std::uint32_t delayTicks,
                    Site s);

  /// Marks the calling managed thread as inside a callback for its scope.
  class CallbackScope {
   public:
    explicit CallbackScope(EventLoop& loop);
    ~CallbackScope();

   private:
    EventLoop& loop_;
    ThreadId thread_;
  };

  rt::Runtime* rt_;
  std::string name_;
  std::uint32_t schedulers_;
  ObjectId id_ = kNoObject;

  rt::Semaphore slots_;  ///< scheduler slots; the dispatch choice point
  rt::Mutex mu_;         ///< guards live_ (the drain monitor)
  rt::CondVar idle_;     ///< broadcast when live_ drops to zero
  std::uint32_t live_ = 0;  ///< accepted tasks not yet finished (under mu_)

  // Tasklet bookkeeping.  tidMu_ is a plain mutex: it is never held across a
  // runtime operation, so it cannot invert with the cooperative scheduler.
  // inCallback_ is keyed by managed thread, not OS thread: under
  // ControlledRuntime every managed thread runs on the caller's OS thread.
  mutable std::mutex tidMu_;
  std::vector<ThreadId> tids_;
  std::vector<ThreadId> inCallback_;  ///< threads inside a callback now

  std::atomic<std::uint32_t> taskSeq_{0};
  std::atomic<std::int32_t> depth_{0};
  std::atomic<std::uint32_t> maxDepth_{0};
  std::atomic<std::uint64_t> posted_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> timersFired_{0};
};

}  // namespace mtt::evloop
