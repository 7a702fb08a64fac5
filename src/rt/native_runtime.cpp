#include "rt/native_runtime.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "core/stats.hpp"

namespace mtt::rt {

namespace {
thread_local void* tl_native_current = nullptr;

// Abort-responsiveness granularity for watchdog waits.
constexpr std::chrono::milliseconds kSlice{10};
// Poll granularity for contended mutex acquisition (see mutexLock).
constexpr std::chrono::microseconds kLockPoll{100};
}  // namespace

NativeRuntime::~NativeRuntime() { assert(osThreads_.empty()); }

NativeRuntime::Tcb* NativeRuntime::currentTcb() const {
  return static_cast<Tcb*>(tl_native_current);
}

ThreadId NativeRuntime::currentThread() const {
  Tcb* t = currentTcb();
  return t ? t->id : kNoThread;
}

std::string NativeRuntime::threadName(ThreadId t) const {
  std::lock_guard<std::mutex> lk(mu_);
  if (t == kNoThread || t > tcbs_.size()) return "T?";
  return tcbs_[t - 1]->name;
}

void NativeRuntime::checkAbort() const {
  if (abort_.load(std::memory_order_acquire)) throw RunAborted{};
}

void NativeRuntime::watchdogFired(const std::string& waitingFor,
                                  ObjectId obj) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!abort_.load(std::memory_order_relaxed)) {
      status_ = RunStatus::Deadlock;
      Tcb* self = currentTcb();
      BlockedThreadInfo info;
      info.thread = self ? self->id : kNoThread;
      info.threadName = self ? self->name : "?";
      info.waitingFor = waitingFor;
      info.object = obj;
      blocked_.push_back(std::move(info));
      abort_.store(true, std::memory_order_release);
    }
  }
  joinCv_.notify_all();
  throw RunAborted{};
}

void NativeRuntime::fail(std::string msg) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!abort_.load(std::memory_order_relaxed)) {
      status_ = RunStatus::AssertFailed;
      failureMessage_ = std::move(msg);
      abort_.store(true, std::memory_order_release);
    }
  }
  joinCv_.notify_all();
  throw RunAborted{};
}

void NativeRuntime::trampoline(Tcb* self, std::function<void()> fn) {
  tl_native_current = self;
  emit(EventKind::ThreadStart, self->id, self->id, Site{});
  try {
    fn();
    emit(EventKind::ThreadFinish, self->id, self->id, Site{});
  } catch (const RunAborted&) {
    // Expected unwind during aborts.
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lk(mu_);
    if (!abort_.load(std::memory_order_relaxed)) {
      status_ = RunStatus::AssertFailed;
      failureMessage_ =
          "uncaught exception in " + self->name + ": " + e.what();
      abort_.store(true, std::memory_order_release);
    }
  }
  {
    // Under mu_: a joiner checks `finished` under mu_ and then sleeps; a
    // store and notify between the two would be lost, and the join would
    // wait forever.
    std::lock_guard<std::mutex> lk(mu_);
    self->finished.store(true, std::memory_order_release);
  }
  joinCv_.notify_all();
  tl_native_current = nullptr;
}

RunResult NativeRuntime::run(std::function<void(Runtime&)> body,
                             const RunOptions& opts) {
  if (runActive_) {
    throw std::logic_error("mtt: NativeRuntime::run is not reentrant");
  }
  runActive_ = true;
  {
    std::lock_guard<std::mutex> lk(mu_);
    tcbs_.clear();
    status_ = RunStatus::Completed;
    failureMessage_.clear();
    blocked_.clear();
    abort_.store(false, std::memory_order_relaxed);
    blockTimeout_ = opts.blockTimeout;
    resetEventCount();
    resetObjects();
  }
  hooks_.setTimingEnabled(opts.dispatchTiming);
  RunInfo info;
  info.programName = internName(opts.programName);
  info.seed = opts.seed;
  info.mode = RuntimeMode::Native;
  hooks_.dispatchRunStart(info);

  Stopwatch sw;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto main = std::make_unique<Tcb>();
    main->id = kMainThread;
    main->name = "main";
    Tcb* raw = main.get();
    tcbs_.push_back(std::move(main));
    osThreads_.emplace_back([this, raw, b = std::move(body)]() mutable {
      trampoline(raw, [this, &b] { b(*this); });
    });
  }
  // Threads may spawn further threads; join until the set quiesces.  Every
  // blocking operation has a watchdog, so all threads terminate.
  for (std::size_t joined = 0;;) {
    std::thread t;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (joined == osThreads_.size()) break;
      t = std::move(osThreads_[joined]);
    }
    t.join();
    ++joined;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    osThreads_.clear();
  }

  RunResult result;
  {
    std::lock_guard<std::mutex> lk(mu_);
    result.status = status_;
    result.failureMessage = failureMessage_;
    result.blocked = blocked_;
  }
  result.events = eventCount();
  result.wallSeconds = sw.elapsedSeconds();
  hooks_.dispatchRunEnd();
  result.dispatch = hooks_.stats();
  runActive_ = false;
  return result;
}

ThreadId NativeRuntime::spawnThread(std::string name,
                                    std::function<void()> fn) {
  checkAbort();
  Tcb* self = currentTcb();
  if (self == nullptr) {
    throw std::logic_error("mtt: spawnThread outside a managed thread");
  }
  Tcb* raw = nullptr;
  ThreadId cid = kNoThread;
  {
    std::lock_guard<std::mutex> lk(mu_);
    cid = static_cast<ThreadId>(tcbs_.size() + 1);
    auto child = std::make_unique<Tcb>();
    child->id = cid;
    child->name = name.empty() ? "T" + std::to_string(cid) : std::move(name);
    raw = child.get();
    tcbs_.push_back(std::move(child));
  }
  // Emit the spawn before launching so every listener observes the spawn
  // strictly before any event of the child (the happens-before edge race
  // detectors rely on).
  gate(EventKind::ThreadSpawn, cid);
  emit(EventKind::ThreadSpawn, self->id, cid, site("spawn"));
  {
    std::lock_guard<std::mutex> lk(mu_);
    osThreads_.emplace_back(
        [this, raw, f = std::move(fn)]() mutable { trampoline(raw, std::move(f)); });
  }
  return cid;
}

void NativeRuntime::joinThread(ThreadId target, Site s) {
  checkAbort();
  gate(EventKind::ThreadJoin, target);
  Tcb* t = nullptr;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (target == kNoThread || target > tcbs_.size()) {
      throw std::logic_error("mtt: join of unknown thread");
    }
    t = tcbs_[target - 1].get();
  }
  {
    std::unique_lock<std::mutex> lk(mu_);
    // Even during an abort, wait for the target to actually finish: the
    // target may reference objects on this thread's stack, which must not
    // unwind first.  The target always finishes — every blocking operation
    // has a watchdog and aborts propagate at the next instrumentation point.
    joinCv_.wait(lk,
                 [&] { return t->finished.load(std::memory_order_acquire); });
  }
  checkAbort();
  emit(EventKind::ThreadJoin, currentThread(), target, s);
}

void NativeRuntime::reapThread(ThreadId target) noexcept {
  Tcb* t = nullptr;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (target == kNoThread || target > tcbs_.size()) return;
    t = tcbs_[target - 1].get();
  }
  std::unique_lock<std::mutex> lk(mu_);
  joinCv_.wait(lk,
               [&] { return t->finished.load(std::memory_order_acquire); });
}

void NativeRuntime::yieldNow(Site s) {
  checkAbort();
  emit(EventKind::Yield, currentThread(), kNoObject, s);
  std::this_thread::yield();
}

void NativeRuntime::sleepFor(std::chrono::microseconds d) {
  checkAbort();
  std::this_thread::sleep_for(d);
}

void NativeRuntime::evloopPoint(EventKind kind, ObjectId obj, Site s,
                                std::uint32_t arg) {
  checkAbort();
  gate(kind, obj);
  emit(kind, currentThread(), obj, s, arg);
}

void NativeRuntime::postNoise(const NoiseRequest& req) {
  // Native mode: apply immediately on the posting thread.
  switch (req.kind) {
    case NoiseRequest::Kind::Yield:
      for (std::uint32_t i = 0; i < std::max<std::uint32_t>(req.amount, 1);
           ++i) {
        std::this_thread::yield();
      }
      break;
    case NoiseRequest::Kind::Sleep:
      std::this_thread::sleep_for(std::chrono::microseconds(req.amount));
      break;
    case NoiseRequest::Kind::None:
      break;
  }
}

void NativeRuntime::mutexLock(MutexState& m, Site s) {
  checkAbort();
  gate(EventKind::MutexLock, m.id);
  ThreadId self = currentThread();
  if (m.recursive && m.nativeOwner.load(std::memory_order_acquire) == self) {
    ++m.nativeDepth;
    emit(EventKind::MutexLock, self, m.id, s);
    return;
  }
  bool contended = false;
  if (!m.native.try_lock()) {
    contended = true;
    auto deadline = std::chrono::steady_clock::now() + blockTimeout_;
    // Poll with try_lock instead of blocking in try_lock_for: glibc
    // implements timed_mutex::try_lock_for via pthread_mutex_clocklock,
    // which TSan does not intercept — an acquisition through it is
    // invisible to the tool, so the owner-bookkeeping writes below and the
    // eventual unlock get reported as races on a mutex TSan believes is
    // unlocked.  try_lock maps to pthread_mutex_trylock, which TSan models.
    for (;;) {
      if (m.native.try_lock()) break;
      std::this_thread::sleep_for(kLockPoll);
      checkAbort();
      if (std::chrono::steady_clock::now() >= deadline) {
        watchdogFired("mutex " + objectInfo(m.id).name, m.id);
      }
    }
  }
  m.nativeOwner.store(self, std::memory_order_release);
  m.nativeDepth = 1;
  emit(EventKind::MutexLock, self, m.id, s, contended ? 1 : 0);
}

bool NativeRuntime::mutexTryLock(MutexState& m, Site s) {
  checkAbort();
  gate(EventKind::MutexTryLockOk, m.id);
  ThreadId self = currentThread();
  if (m.recursive && m.nativeOwner.load(std::memory_order_acquire) == self) {
    ++m.nativeDepth;
    emit(EventKind::MutexTryLockOk, self, m.id, s);
    return true;
  }
  if (m.native.try_lock()) {
    m.nativeOwner.store(self, std::memory_order_release);
    m.nativeDepth = 1;
    emit(EventKind::MutexTryLockOk, self, m.id, s);
    return true;
  }
  emit(EventKind::MutexTryLockFail, self, m.id, s);
  return false;
}

void NativeRuntime::mutexUnlock(MutexState& m, Site s) {
  // No checkAbort: unlock is reachable from destructors and must release the
  // native lock so peers blocked on it can observe the abort and unwind.
  gate(EventKind::MutexUnlock, m.id);
  emit(EventKind::MutexUnlock, currentThread(), m.id, s);
  if (m.nativeDepth > 1) {
    --m.nativeDepth;
    return;
  }
  m.nativeDepth = 0;
  m.nativeOwner.store(kNoThread, std::memory_order_release);
  m.native.unlock();
}

void NativeRuntime::condWait(CondState& c, MutexState& m, Site s) {
  checkAbort();
  gate(EventKind::CondWaitBegin, c.id);
  ThreadId self = currentThread();
  emit(EventKind::CondWaitBegin, self, c.id, s, m.id);
  std::unique_lock<std::timed_mutex> ul(m.native, std::adopt_lock);
  m.nativeOwner.store(kNoThread, std::memory_order_release);
  auto deadline = std::chrono::steady_clock::now() + blockTimeout_;
  bool signaled = false;
  while (!signaled) {
    auto st = c.native.wait_for(ul, kSlice);
    if (st == std::cv_status::no_timeout) {
      signaled = true;  // may be spurious; callers wait in loops
      break;
    }
    if (abort_.load(std::memory_order_acquire)) {
      // Keep the mutex "held" from the caller's perspective so its guard
      // unwinds consistently; mark ourselves the owner again.
      m.nativeOwner.store(self, std::memory_order_release);
      ul.release();
      throw RunAborted{};
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      m.nativeOwner.store(self, std::memory_order_release);
      ul.release();
      watchdogFired("condvar " + objectInfo(c.id).name +
                        " (possible lost wakeup)",
                    c.id);
    }
  }
  m.nativeOwner.store(self, std::memory_order_release);
  ul.release();
  emit(EventKind::CondWaitEnd, self, c.id, s, m.id);
}

void NativeRuntime::condSignal(CondState& c, Site s) {
  checkAbort();
  gate(EventKind::CondSignal, c.id);
  c.native.notify_one();
  emit(EventKind::CondSignal, currentThread(), c.id, s);
}

void NativeRuntime::condBroadcast(CondState& c, Site s) {
  checkAbort();
  gate(EventKind::CondBroadcast, c.id);
  c.native.notify_all();
  emit(EventKind::CondBroadcast, currentThread(), c.id, s);
}

void NativeRuntime::semAcquire(SemState& sem, Site s) {
  checkAbort();
  gate(EventKind::SemAcquire, sem.id);
  auto deadline = std::chrono::steady_clock::now() + blockTimeout_;
  bool contended = false;
  {
    std::unique_lock<std::mutex> lk(sem.nm);
    while (sem.permits <= 0) {
      contended = true;
      sem.ncv.wait_for(lk, kSlice);
      if (abort_.load(std::memory_order_acquire)) throw RunAborted{};
      if (sem.permits <= 0 && std::chrono::steady_clock::now() >= deadline) {
        lk.unlock();
        watchdogFired("semaphore " + objectInfo(sem.id).name, sem.id);
      }
    }
    --sem.permits;
  }
  emit(EventKind::SemAcquire, currentThread(), sem.id, s, contended ? 1 : 0);
}

bool NativeRuntime::semTryAcquire(SemState& sem, Site s) {
  checkAbort();
  gate(EventKind::SemAcquire, sem.id);
  {
    std::lock_guard<std::mutex> lk(sem.nm);
    if (sem.permits <= 0) return false;
    --sem.permits;
  }
  emit(EventKind::SemAcquire, currentThread(), sem.id, s);
  return true;
}

void NativeRuntime::semRelease(SemState& sem, std::uint32_t n, Site s) {
  // No checkAbort: release is cleanup-path-safe by design.
  gate(EventKind::SemRelease, sem.id);
  {
    std::lock_guard<std::mutex> lk(sem.nm);
    sem.permits += n;
  }
  sem.ncv.notify_all();
  emit(EventKind::SemRelease, currentThread(), sem.id, s, n);
}

void NativeRuntime::barrierWait(BarrierState& b, Site s) {
  checkAbort();
  gate(EventKind::BarrierEnter, b.id);
  ThreadId self = currentThread();
  auto deadline = std::chrono::steady_clock::now() + blockTimeout_;
  std::uint64_t myGen = 0;
  {
    std::unique_lock<std::mutex> lk(b.nm);
    myGen = b.generation;
    emit(EventKind::BarrierEnter, self, b.id, s,
         static_cast<std::uint32_t>(myGen));
    if (++b.arrived >= b.parties) {
      b.arrived = 0;
      ++b.generation;
      b.ncv.notify_all();
    } else {
      while (b.generation == myGen) {
        b.ncv.wait_for(lk, kSlice);
        if (abort_.load(std::memory_order_acquire)) throw RunAborted{};
        if (b.generation == myGen &&
            std::chrono::steady_clock::now() >= deadline) {
          lk.unlock();
          watchdogFired("barrier " + objectInfo(b.id).name, b.id);
        }
      }
    }
  }
  emit(EventKind::BarrierExit, self, b.id, s,
       static_cast<std::uint32_t>(myGen + 1));
}

void NativeRuntime::rwLockRead(RwState& rw, Site s) {
  checkAbort();
  gate(EventKind::RwLockRead, rw.id);
  bool contended = false;
  if (!rw.native.try_lock_shared()) {
    contended = true;
    auto deadline = std::chrono::steady_clock::now() + blockTimeout_;
    for (;;) {
      if (rw.native.try_lock_shared_for(kSlice)) break;
      checkAbort();
      if (std::chrono::steady_clock::now() >= deadline) {
        watchdogFired("rwlock " + objectInfo(rw.id).name + " (read)", rw.id);
      }
    }
  }
  emit(EventKind::RwLockRead, currentThread(), rw.id, s, contended ? 1 : 0);
}

void NativeRuntime::rwUnlockRead(RwState& rw, Site s) {
  // No checkAbort: cleanup-path-safe (guards unlock during unwinding).
  gate(EventKind::RwUnlockRead, rw.id);
  emit(EventKind::RwUnlockRead, currentThread(), rw.id, s);
  rw.native.unlock_shared();
}

void NativeRuntime::rwLockWrite(RwState& rw, Site s) {
  checkAbort();
  gate(EventKind::RwLockWrite, rw.id);
  bool contended = false;
  if (!rw.native.try_lock()) {
    contended = true;
    auto deadline = std::chrono::steady_clock::now() + blockTimeout_;
    for (;;) {
      if (rw.native.try_lock_for(kSlice)) break;
      checkAbort();
      if (std::chrono::steady_clock::now() >= deadline) {
        watchdogFired("rwlock " + objectInfo(rw.id).name + " (write)", rw.id);
      }
    }
  }
  emit(EventKind::RwLockWrite, currentThread(), rw.id, s, contended ? 1 : 0);
}

void NativeRuntime::rwUnlockWrite(RwState& rw, Site s) {
  // No checkAbort: cleanup-path-safe.
  gate(EventKind::RwUnlockWrite, rw.id);
  emit(EventKind::RwUnlockWrite, currentThread(), rw.id, s);
  rw.native.unlock();
}

void NativeRuntime::varAccess(ObjectId var, Access a, Site s) {
  checkAbort();
  gate(a == Access::Write ? EventKind::VarWrite : EventKind::VarRead, var);
  emit(a == Access::Write ? EventKind::VarWrite : EventKind::VarRead,
       currentThread(), var, s);
}

std::uint64_t NativeRuntime::atomicLoad(AtomicState& a, std::memory_order mo,
                                        Site s) {
  checkAbort();
  gate(EventKind::AtomicLoad, a.id);
  std::uint64_t v = a.native.load(mo);
  // Native mode has no store history: the observed storer is unknown and
  // the age reads as 0 (whatever the hardware made newest).
  emit(EventKind::AtomicLoad, currentThread(), a.id, s,
       AtomicArg::pack(mo, false, 0, kNoThread));
  return v;
}

void NativeRuntime::atomicStore(AtomicState& a, std::uint64_t v,
                                std::memory_order mo, Site s) {
  checkAbort();
  gate(EventKind::AtomicStore, a.id);
  a.native.store(v, mo);
  emit(EventKind::AtomicStore, currentThread(), a.id, s,
       AtomicArg::pack(mo, mo == std::memory_order_release ||
                               mo == std::memory_order_acq_rel ||
                               mo == std::memory_order_seq_cst,
                       0, currentThread()));
}

std::uint64_t NativeRuntime::atomicRmw(AtomicState& a, RmwOp op,
                                       std::uint64_t operand,
                                       std::uint64_t expected,
                                       std::memory_order mo, Site s,
                                       bool* ok) {
  checkAbort();
  gate(EventKind::AtomicRMW, a.id);
  std::uint64_t old = 0;
  bool success = true;
  switch (op) {
    case RmwOp::Exchange: old = a.native.exchange(operand, mo); break;
    case RmwOp::FetchAdd: old = a.native.fetch_add(operand, mo); break;
    case RmwOp::CompareExchange: {
      std::uint64_t exp = expected;
      success = a.native.compare_exchange_strong(exp, operand, mo);
      old = exp;
      break;
    }
  }
  if (ok != nullptr) *ok = success;
  emit(EventKind::AtomicRMW, currentThread(), a.id, s,
       AtomicArg::pack(mo, success, 0, kNoThread));
  return old;
}

void NativeRuntime::atomicFence(std::memory_order mo, Site s) {
  checkAbort();
  gate(EventKind::Fence, kNoObject);
  std::atomic_thread_fence(mo);
  emit(EventKind::Fence, currentThread(), kNoObject, s,
       AtomicArg::pack(mo, false, 0, kNoThread));
}

}  // namespace mtt::rt
