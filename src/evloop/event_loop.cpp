#include "evloop/event_loop.hpp"

#include <algorithm>
#include <chrono>

namespace mtt::evloop {

EventLoop::EventLoop(rt::Runtime& rt, std::string name,
                     std::uint32_t schedulers)
    : rt_(&rt),
      name_(name),
      schedulers_(std::max<std::uint32_t>(schedulers, 1)),
      id_(rt.registerObject(rt::ObjectKind::TaskQueue, name)),
      slots_(rt, name + ".slots", std::max<std::uint32_t>(schedulers, 1)),
      mu_(rt, name + ".state"),
      idle_(rt, name + ".idle") {}

EventLoop::~EventLoop() {
  // Reap every tasklet, including ones spawned (by callbacks posting more
  // work) while we reap — loop until the list stops growing.  reapThread is
  // noexcept and abort-safe, mirroring rt::Thread's destructor contract.
  std::size_t reaped = 0;
  for (;;) {
    std::vector<ThreadId> batch;
    {
      std::lock_guard<std::mutex> lk(tidMu_);
      if (reaped == tids_.size()) break;
      batch.assign(tids_.begin() + static_cast<std::ptrdiff_t>(reaped),
                   tids_.end());
      reaped = tids_.size();
    }
    for (ThreadId t : batch) rt_->reapThread(t);
  }
}

std::uint32_t EventLoop::post(Task fn, Site s) {
  const std::uint32_t taskId = ++taskSeq_;
  rt_->evloopPoint(EventKind::TaskPost, id_, s, taskId);
  spawnTasklet(std::move(fn), taskId, 0, s);
  return taskId;
}

std::uint32_t EventLoop::postDelayed(Task fn, std::uint32_t delayTicks,
                                     Site s) {
  const std::uint32_t taskId = ++taskSeq_;
  rt_->evloopPoint(EventKind::TaskPost, id_, s, taskId);
  spawnTasklet(std::move(fn), taskId, std::max<std::uint32_t>(delayTicks, 1),
               s);
  return taskId;
}

void EventLoop::spawnTasklet(Task fn, std::uint32_t taskId,
                             std::uint32_t delayTicks, Site s) {
  posted_.fetch_add(1, std::memory_order_relaxed);
  {
    rt::LockGuard g(mu_, s);
    ++live_;
  }
  ThreadId tid = rt_->spawnThread(
      name_ + ".t" + std::to_string(taskId),
      [this, fn = std::move(fn), taskId, delayTicks, s]() mutable {
        runTask(std::move(fn), taskId, delayTicks, s);
      });
  std::lock_guard<std::mutex> lk(tidMu_);
  tids_.push_back(tid);
}

void EventLoop::runTask(Task fn, std::uint32_t taskId,
                        std::uint32_t delayTicks, Site s) {
  if (delayTicks > 0) {
    // Virtual-tick timer: controlled mode advances `delayTicks` scheduling
    // steps (sleepFor counts one tick per 100µs), native mode really sleeps.
    rt_->sleepFor(std::chrono::microseconds(delayTicks * 100));
    rt_->evloopPoint(EventKind::TimerFire, id_, s, taskId);
    timersFired_.fetch_add(1, std::memory_order_relaxed);
  }
  rt_->evloopPoint(EventKind::QueuePut, id_, s, taskId);
  const auto d = static_cast<std::uint32_t>(
      depth_.fetch_add(1, std::memory_order_relaxed) + 1);
  std::uint32_t seen = maxDepth_.load(std::memory_order_relaxed);
  while (d > seen &&
         !maxDepth_.compare_exchange_weak(seen, d, std::memory_order_relaxed))
    ;
  // The dispatch point: every ready callback is a tasklet blocked here, and
  // in controlled mode the schedule policy's pick among them *is* the choice
  // of which callback the loop runs next.
  slots_.acquire(s);
  depth_.fetch_sub(1, std::memory_order_relaxed);
  rt_->evloopPoint(EventKind::QueueTake, id_, s, taskId);
  rt_->evloopPoint(EventKind::TaskBegin, id_, s, taskId);
  {
    CallbackScope scope(*this);
    fn();
  }
  rt_->evloopPoint(EventKind::TaskEnd, id_, s, taskId);
  executed_.fetch_add(1, std::memory_order_relaxed);
  slots_.release(1, s);
  rt::LockGuard g(mu_, s);
  if (--live_ == 0) idle_.broadcast(s);
}

void EventLoop::drain(Site s) {
  if (inCallback()) {
    rt_->fail("evloop " + name_ +
              ": drain() called from inside a callback (the callback "
              "occupies the slot drain would wait on)");
  }
  rt::LockGuard g(mu_, s);
  while (live_ > 0) idle_.wait(mu_, s);
}

bool EventLoop::inCallback() const {
  const ThreadId self = rt_->currentThread();
  std::lock_guard<std::mutex> lk(tidMu_);
  return std::find(inCallback_.begin(), inCallback_.end(), self) !=
         inCallback_.end();
}

EventLoop::CallbackScope::CallbackScope(EventLoop& loop)
    : loop_(loop), thread_(loop.rt_->currentThread()) {
  std::lock_guard<std::mutex> lk(loop_.tidMu_);
  loop_.inCallback_.push_back(thread_);
}

EventLoop::CallbackScope::~CallbackScope() {
  std::lock_guard<std::mutex> lk(loop_.tidMu_);
  auto& v = loop_.inCallback_;
  v.erase(std::find(v.begin(), v.end(), thread_));
}

LoopStats EventLoop::stats() const {
  LoopStats st;
  st.posted = posted_.load(std::memory_order_relaxed);
  st.executed = executed_.load(std::memory_order_relaxed);
  st.timersFired = timersFired_.load(std::memory_order_relaxed);
  st.maxQueueDepth = maxDepth_.load(std::memory_order_relaxed);
  return st;
}

}  // namespace mtt::evloop
