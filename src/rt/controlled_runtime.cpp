#include "rt/controlled_runtime.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#define MTT_ASAN_FIBERS 1
#else
#define MTT_ASAN_FIBERS 0
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#define MTT_TSAN_FIBERS 1
#else
#define MTT_TSAN_FIBERS 0
#endif

#include "core/stats.hpp"
#include "rt/flight_recorder.hpp"

#if defined(__x86_64__)
// The register-swap fiber switch (fiber_switch_x86_64.S).
extern "C" {
void mtt_switch(void** saveSp, void* loadSp);
void* mtt_fiber_make(void* top, void (*fn)(void*), void* arg);
}
#endif

namespace mtt::rt {

namespace {
// The managed thread currently executing on this OS thread, set on every
// fiber switch (null on any OS thread that is not running a managed thread,
// which is how calls from foreign threads are refused).
thread_local void* tl_current = nullptr;

// --- fiber stacks -------------------------------------------------------------
// Each stack is kStackSize usable bytes above one PROT_NONE guard page,
// mapped MAP_NORESERVE and never prefaulted or zeroed, so resident memory is
// only the pages a thread touched.  A runtime maps its stacks on first use
// and keeps them until it is destroyed.

constexpr std::size_t kStackSize = ControlledRuntime::kFiberStackSize;
const std::size_t kGuard = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));

char* mapStack() {
  void* p = ::mmap(nullptr, kGuard + kStackSize, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1,
                   0);
  if (p == MAP_FAILED) {
    throw std::runtime_error("cannot map a managed-thread stack");
  }
  if (::mprotect(p, kGuard, PROT_NONE) != 0) {
    ::munmap(p, kGuard + kStackSize);
    throw std::runtime_error("cannot guard a managed-thread stack");
  }
  return static_cast<char*>(p) + kGuard;
}

// --- vector-clock helpers (weak-memory model) ------------------------------
// Clocks are indexed by ThreadId (slot 0, kNoThread, stays unused); all
// access happens on the carrier, for the thread holding the turn.

std::uint64_t vcAt(const std::vector<std::uint64_t>& vc, ThreadId t) {
  return t < vc.size() ? vc[t] : 0;
}

void vcJoin(std::vector<std::uint64_t>& dst,
            const std::vector<std::uint64_t>& src) {
  if (dst.size() < src.size()) dst.resize(src.size(), 0);
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (dst[i] < src[i]) dst[i] = src[i];
  }
}

std::uint64_t vcTick(std::vector<std::uint64_t>& vc, ThreadId t) {
  if (vc.size() <= t) vc.resize(t + 1, 0);
  return ++vc[t];
}

bool isAcquire(std::memory_order mo) {
  return mo == std::memory_order_acquire || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst;
}

bool isRelease(std::memory_order mo) {
  return mo == std::memory_order_release || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst;
}

/// Per-location store-history cap: the oldest record is dropped past this.
/// Sound — dropping history only shrinks observable sets toward the SC
/// (coherence-newest) value, never adds behaviours.
constexpr std::size_t kMaxStoreHistory = 64;

}  // namespace

ControlledRuntime::ControlledRuntime(std::unique_ptr<SchedulePolicy> policy)
    : policy_(policy ? std::move(policy)
                     : std::make_unique<RandomPolicy>()) {}

ControlledRuntime::~ControlledRuntime() {
  for (char* s : stacks_) ::munmap(s - kGuard, kGuard + kStackSize);
}

void ControlledRuntime::setPolicy(std::unique_ptr<SchedulePolicy> p) {
  if (p) policy_ = std::move(p);
}

ControlledRuntime::Tcb& ControlledRuntime::tcbOf(ThreadId id) const {
  return *tcbs_[id - 1];
}

ControlledRuntime::Tcb* ControlledRuntime::currentTcb() const {
  return static_cast<Tcb*>(tl_current);
}

ThreadId ControlledRuntime::currentThread() const {
  Tcb* t = currentTcb();
  return t ? t->id : kNoThread;
}

std::string ControlledRuntime::threadName(ThreadId t) const {
  if (t == kNoThread || t > tcbs_.size()) return "T?";
  return tcbs_[t - 1]->name;
}

bool ControlledRuntime::enabledLocked(const Tcb& t) const {
  if (t.st != St::Parked) return false;
  const PendingOp& op = t.pending;
  switch (op.code) {
    case OpCode::Lock:
      return op.m->owner == kNoThread ||
             (op.m->recursive && op.m->owner == t.id && !op.condResume);
    case OpCode::SemAcquire:
      return op.sem->permits > 0;
    case OpCode::RwRead:
      return op.rw->writer == kNoThread;
    case OpCode::RwWrite:
      return op.rw->writer == kNoThread && op.rw->readers == 0;
    case OpCode::Join:
      return tcbOf(op.target).st == St::Finished;
    case OpCode::Sleep:
      return steps_ >= op.wakeStep;
    default:
      return true;
  }
}

PendingOpInfo ControlledRuntime::opInfoOf(const Tcb& t) const {
  PendingOpInfo info;
  info.thread = t.id;
  const PendingOp& op = t.pending;
  switch (op.code) {
    case OpCode::Start: info.kind = OpKind::ThreadStart; break;
    case OpCode::Spawn: info.kind = OpKind::Spawn; break;
    case OpCode::Lock:
      info.kind = OpKind::MutexLock;
      info.object = op.m->id;
      break;
    case OpCode::TryLock:
      info.kind = OpKind::MutexTryLock;
      info.object = op.m->id;
      break;
    case OpCode::Unlock:
      info.kind = OpKind::MutexUnlock;
      info.object = op.m->id;
      break;
    case OpCode::CondWait:
      info.kind = OpKind::CondWait;
      info.object = op.c->id;
      info.object2 = op.m->id;
      break;
    case OpCode::CondSignal:
      info.kind = OpKind::CondSignal;
      info.object = op.c->id;
      break;
    case OpCode::CondBroadcast:
      info.kind = OpKind::CondBroadcast;
      info.object = op.c->id;
      break;
    case OpCode::SemAcquire:
      info.kind = OpKind::SemAcquire;
      info.object = op.sem->id;
      break;
    case OpCode::SemTryAcquire:
      info.kind = OpKind::SemTryAcquire;
      info.object = op.sem->id;
      break;
    case OpCode::SemRelease:
      info.kind = OpKind::SemRelease;
      info.object = op.sem->id;
      break;
    case OpCode::BarrierArrive:
      info.kind = OpKind::BarrierArrive;
      info.object = op.b->id;
      break;
    case OpCode::RwRead:
      info.kind = OpKind::RwRead;
      info.object = op.rw->id;
      break;
    case OpCode::RwWrite:
      info.kind = OpKind::RwWrite;
      info.object = op.rw->id;
      break;
    case OpCode::RwUnlockR:
      info.kind = OpKind::RwUnlockRead;
      info.object = op.rw->id;
      break;
    case OpCode::RwUnlockW:
      info.kind = OpKind::RwUnlockWrite;
      info.object = op.rw->id;
      break;
    case OpCode::Join:
      info.kind = OpKind::Join;
      info.object = op.target;
      break;
    case OpCode::VarAccess:
      info.kind =
          op.access == Access::Write ? OpKind::VarWrite : OpKind::VarRead;
      info.object = op.var;
      break;
    case OpCode::EvPoint:
      info.kind = OpKind::Task;
      info.object = op.var;  // the loop/queue object id
      break;
    case OpCode::AtomicLoad:
      info.kind = OpKind::AtomicLoad;
      info.object = op.at->id;
      break;
    case OpCode::AtomicStore:
      info.kind = OpKind::AtomicStore;
      info.object = op.at->id;
      break;
    case OpCode::AtomicRmw:
      info.kind = OpKind::AtomicRMW;
      info.object = op.at->id;
      break;
    case OpCode::Fence: info.kind = OpKind::Fence; break;
    case OpCode::Yield: info.kind = OpKind::Yield; break;
    case OpCode::Sleep: info.kind = OpKind::Sleep; break;
    case OpCode::Finish: info.kind = OpKind::Finish; break;
  }
  return info;
}

ControlledRuntime::Tcb* ControlledRuntime::scheduleNextLocked() {
  for (;;) {
    enabled_.clear();
    bool anySleeper = false;
    std::uint64_t minWake = ~std::uint64_t{0};
    for (Tcb* t : live_) {
      if (t->st != St::Parked) continue;
      if (t->pending.code == OpCode::Sleep && steps_ < t->pending.wakeStep) {
        anySleeper = true;
        minWake = std::min(minWake, t->pending.wakeStep);
        continue;
      }
      if (enabledLocked(*t)) {
        enabled_.push_back(t->id);
      } else if (t->pending.code == OpCode::Lock ||
                 t->pending.code == OpCode::SemAcquire ||
                 t->pending.code == OpCode::RwRead ||
                 t->pending.code == OpCode::RwWrite) {
        // Remember contention: the eventual MutexLock/SemAcquire event
        // carries arg=1 so coverage models can count contended acquires.
        t->pending.everBlocked = true;
      }
    }
    if (!enabled_.empty()) {
      if (steps_ >= maxSteps_) {
        beginAbortLocked(RunStatus::StepLimit);
        return unwindTargetLocked();
      }
      bool yielding = false;
      if (lastRunning_ != kNoThread) {
        const Tcb& prev = tcbOf(lastRunning_);
        yielding = prev.st == St::Parked &&
                   (prev.pending.code == OpCode::Yield ||
                    prev.pending.code == OpCode::Sleep);
      }
      ops_.clear();
      for (ThreadId t : enabled_) ops_.push_back(opInfoOf(tcbOf(t)));
      PickContext ctx;
      ctx.enabled = std::span<const ThreadId>(enabled_);
      ctx.ops = std::span<const PendingOpInfo>(ops_);
      ctx.current = lastRunning_;
      ctx.currentYielding = yielding;
      ctx.step = steps_;
      ThreadId choice = policy_->pick(ctx);
      if (std::find(enabled_.begin(), enabled_.end(), choice) ==
          enabled_.end()) {
        choice = enabled_.front();  // defensive: policies must pick enabled
      }
      ++steps_;
      // Mirror the committed (post-correction) decision into the flight
      // recorder: this is exactly what a RecordingPolicy would record, so
      // a postmortem dump replays like a normal recording.
      fr::recordDecision(this, choice);
      Tcb& c = tcbOf(choice);
      decisionNoise_.push_back(c.pending.injected);
      return &c;
    }
    if (anySleeper) {
      // Every runnable thread is asleep: advance virtual time.  This is how
      // sleep-based "synchronization" stays runnable yet unreliable.
      steps_ = minWake;
      continue;
    }
    if (live_.empty()) return nullptr;
    beginAbortLocked(RunStatus::Deadlock);
    return unwindTargetLocked();
  }
}

bool ControlledRuntime::park(Tcb& self) {
  switchTo(&self, scheduleNextLocked());
  // Resumed: either scheduled, or (during an abort) it is our unwind turn.
  if (abort_) return false;
  self.st = St::Running;
  lastRunning_ = self.id;
  return true;
}

void ControlledRuntime::releaseMutexFullyLocked(MutexState& m) {
  m.owner = kNoThread;
  m.depth = 0;
  fr::lockReleased(this, m.id);
}

std::string ControlledRuntime::describeWait(const Tcb& t) const {
  auto objName = [&](ObjectId id) { return objectInfo(id).name; };
  switch (t.st) {
    case St::WaitCond:
      return "condvar " + objName(t.pending.c ? t.pending.c->id : kNoObject);
    case St::WaitBarrier:
      return "barrier " + objName(t.pending.b ? t.pending.b->id : kNoObject);
    case St::Parked:
      switch (t.pending.code) {
        case OpCode::Lock: {
          std::string s = "mutex " + objName(t.pending.m->id);
          if (t.pending.m->owner != kNoThread) {
            s += " (held by " + tcbOf(t.pending.m->owner).name + ")";
          }
          if (t.pending.condResume) s += " [reacquire after wait]";
          return s;
        }
        case OpCode::SemAcquire:
          return "semaphore " + objName(t.pending.sem->id);
        case OpCode::RwRead:
          return "rwlock " + objName(t.pending.rw->id) + " (read)";
        case OpCode::RwWrite: {
          std::string out = "rwlock " + objName(t.pending.rw->id) + " (write";
          if (t.pending.rw->readers > 0) {
            out += ", " + std::to_string(t.pending.rw->readers) +
                   " reader(s) active";
          }
          return out + ")";
        }
        case OpCode::Join:
          return "join " + tcbOf(t.pending.target).name;
        case OpCode::Sleep:
          return "sleeping";
        default:
          return "runnable";
      }
    default:
      return "?";
  }
}

void ControlledRuntime::collectBlockedLocked() {
  blocked_.clear();
  for (const Tcb* t : live_) {
    BlockedThreadInfo info;
    info.thread = t->id;
    info.threadName = t->name;
    info.waitingFor = describeWait(*t);
    if (t->st == St::Parked && t->pending.code == OpCode::Lock) {
      info.object = t->pending.m->id;
    } else if (t->st == St::WaitCond && t->pending.c) {
      info.object = t->pending.c->id;
    }
    blocked_.push_back(std::move(info));
  }
}

ControlledRuntime::Tcb* ControlledRuntime::unwindTargetLocked() {
  while (!live_.empty()) {
    Tcb* t = live_.back();
    if (t->stack != nullptr) return t;
    t->st = St::Finished;  // never ran: nothing to unwind
    live_.pop_back();
  }
  return nullptr;
}

void ControlledRuntime::awaitUnwindTurn(Tcb& self) {
  switchTo(&self, unwindTargetLocked());
}

void ControlledRuntime::beginAbortLocked(RunStatus status) {
  if (abort_) return;
  abort_ = true;
  status_ = status;
  if (status == RunStatus::Deadlock) collectBlockedLocked();
}

void ControlledRuntime::failLocked(std::string msg) {
  if (!abort_) {
    failureMessage_ = std::move(msg);
    beginAbortLocked(RunStatus::AssertFailed);
  }
  // Wait for our unwind turn: every thread we spawned (higher id) must
  // finish unwinding before our stack objects die.
  awaitUnwindTurn(*currentTcb());
  throw RunAborted{};
}

void ControlledRuntime::fail(std::string msg) {
  if (currentTcb() == nullptr) {
    throw std::logic_error("mtt: fail called outside a managed thread");
  }
  failLocked(std::move(msg));
}

ControlledRuntime::AtomicLoc& ControlledRuntime::locOf(AtomicState& a) {
  auto [it, inserted] = atomics_.try_emplace(a.id);
  AtomicLoc& loc = it->second;
  if (inserted) {
    // Seed with the initial-value pseudo-store (seq 0, no storer): it
    // happens-before everything, so an untouched cell always loads init.
    AtomicStoreRec init;
    init.value = a.init;
    init.storer = kNoThread;
    loc.stores.push_back(std::move(init));
    a.value = a.init;
  }
  return loc;
}

std::memory_order ControlledRuntime::effectiveOrder(std::uint8_t mo) const {
  if (forceSeqCst_) return std::memory_order_seq_cst;
  auto m = static_cast<std::memory_order>(mo);
  return m == std::memory_order_consume ? std::memory_order_acquire : m;
}

bool ControlledRuntime::hbVisible(const Tcb& t,
                                  const AtomicStoreRec& rec) const {
  return rec.storer == kNoThread || rec.stamp <= vcAt(t.vc, rec.storer);
}

std::uint64_t ControlledRuntime::performAtomicLoadLocked(Tcb& self,
                                                         PendingOp& op) {
  AtomicState& a = *op.at;
  AtomicLoc& loc = locOf(a);
  const std::memory_order mo = effectiveOrder(op.memOrder);
  if (mo == std::memory_order_seq_cst) vcJoin(self.vc, scClock_);

  // The load may observe any store at or past its floor: hbFloor is the
  // newest store that happens-before the load (coherence forbids reading
  // past it backwards), readFloor the per-(thread, location) monotonic-read
  // floor.
  std::uint64_t floor = 0;
  for (const AtomicStoreRec& rec : loc.stores) {
    if (hbVisible(self, rec) && rec.seq > floor) floor = rec.seq;
  }
  auto rf = self.readFloor.find(a.id);
  if (rf != self.readFloor.end() && rf->second > floor) floor = rf->second;

  // Candidate indices into loc.stores, newest first: cand[0] is the
  // coherence-newest store, i.e. the SC value.  Non-empty by construction
  // (the newest store's seq is the per-location maximum, hence >= floor).
  std::vector<std::size_t> cand;
  for (std::size_t i = loc.stores.size(); i-- > 0;) {
    if (loc.stores[i].seq < floor) break;  // seq ascends; rest are older
    cand.push_back(i);
  }

  std::uint32_t pick = 0;
  if (cand.size() > 1) {
    // A real choice point: ask the policy which store to observe and commit
    // the answer as a StorePick decision.  Singleton sets never reach the
    // policy, so SC-only programs record pure thread-pick schedules.
    std::vector<StoreOption> opts;
    opts.reserve(cand.size());
    for (std::size_t i : cand) {
      const AtomicStoreRec& rec = loc.stores[i];
      opts.push_back(StoreOption{rec.storer, rec.value, rec.stamp});
    }
    StorePickContext ctx;
    ctx.object = a.id;
    ctx.thread = self.id;
    ctx.options = std::span<const StoreOption>(opts);
    ctx.step = steps_;
    pick = policy_->pickStore(ctx);
    if (pick >= cand.size()) pick = 0;  // defensive, mirrors RecordingPolicy
    ++steps_;
    fr::recordStorePick(this, pick);
    // Store picks are never noise-injected; keep the provenance vector
    // parallel to the decision sequence.
    decisionNoise_.push_back(false);
  }

  const AtomicStoreRec& rec = loc.stores[cand[pick]];
  bool synced = false;
  if (rec.release && rec.storer != kNoThread) {
    if (isAcquire(mo)) {
      vcJoin(self.vc, rec.clock);
      synced = true;
    } else {
      // Relaxed load of a release store: the synchronization is deferred
      // until this thread's next acquire fence claims pendingAcq.
      vcJoin(self.pendingAcq, rec.clock);
    }
  }
  // An observation of a store that already happens-before the loader is a
  // synchronized observation regardless of the load's own order (e.g. a
  // relaxed payload load after an acquire-of-release publication) — the
  // memory-model race check keys off this bit.
  if (!synced && rec.storer != kNoThread &&
      rec.stamp <= vcAt(self.vc, rec.storer)) {
    synced = true;
  }
  std::uint64_t& floorSlot = self.readFloor[a.id];
  if (floorSlot < rec.seq) floorSlot = rec.seq;
  if (mo == std::memory_order_seq_cst) vcJoin(scClock_, self.vc);
  emit(EventKind::AtomicLoad, self.id, a.id, op.site,
       AtomicArg::pack(static_cast<std::memory_order>(op.memOrder), synced,
                       pick, rec.storer));
  return rec.value;
}

void ControlledRuntime::performAtomicStoreLocked(Tcb& self, PendingOp& op) {
  AtomicState& a = *op.at;
  AtomicLoc& loc = locOf(a);
  const std::memory_order mo = effectiveOrder(op.memOrder);
  if (mo == std::memory_order_seq_cst) vcJoin(self.vc, scClock_);
  AtomicStoreRec rec;
  rec.value = op.aval;
  rec.storer = self.id;
  rec.stamp = vcTick(self.vc, self.id);
  rec.seq = loc.nextSeq++;
  rec.release = isRelease(mo) || self.releaseFence;
  if (rec.release) rec.clock = self.vc;
  const bool release = rec.release;
  const std::uint64_t seq = rec.seq;
  loc.stores.push_back(std::move(rec));
  if (loc.stores.size() > kMaxStoreHistory) loc.stores.erase(loc.stores.begin());
  a.value = op.aval;
  std::uint64_t& floorSlot = self.readFloor[a.id];
  if (floorSlot < seq) floorSlot = seq;
  if (mo == std::memory_order_seq_cst) vcJoin(scClock_, self.vc);
  emit(EventKind::AtomicStore, self.id, a.id, op.site,
       AtomicArg::pack(static_cast<std::memory_order>(op.memOrder), release, 0,
                       self.id));
}

std::uint64_t ControlledRuntime::performAtomicRmwLocked(Tcb& self,
                                                        PendingOp& op) {
  AtomicState& a = *op.at;
  AtomicLoc& loc = locOf(a);
  const std::memory_order mo = effectiveOrder(op.memOrder);
  if (mo == std::memory_order_seq_cst) vcJoin(self.vc, scClock_);
  // Atomicity: an RMW always reads the coherence-newest store, so it is
  // never a StorePick choice point.  (Copy: the push_back below reallocates.)
  const AtomicStoreRec cur = loc.stores.back();
  const std::uint64_t old = cur.value;
  if (cur.release && cur.storer != kNoThread) {
    if (isAcquire(mo)) vcJoin(self.vc, cur.clock);
    else vcJoin(self.pendingAcq, cur.clock);
  }
  bool ok = true;
  std::uint64_t newVal = old;
  switch (op.rmwOp) {
    case RmwOp::Exchange: newVal = op.aval; break;
    case RmwOp::FetchAdd: newVal = old + op.aval; break;
    case RmwOp::CompareExchange:
      ok = old == op.aexp;
      if (ok) newVal = op.aval;
      break;
  }
  std::uint64_t newFloor = cur.seq;
  if (ok) {
    AtomicStoreRec rec;
    rec.value = newVal;
    rec.storer = self.id;
    rec.stamp = vcTick(self.vc, self.id);
    rec.seq = loc.nextSeq++;
    rec.release = isRelease(mo) || self.releaseFence;
    if (rec.release) rec.clock = self.vc;
    newFloor = rec.seq;
    loc.stores.push_back(std::move(rec));
    if (loc.stores.size() > kMaxStoreHistory) {
      loc.stores.erase(loc.stores.begin());
    }
    a.value = newVal;
  }
  std::uint64_t& floorSlot = self.readFloor[a.id];
  if (floorSlot < newFloor) floorSlot = newFloor;
  if (mo == std::memory_order_seq_cst) vcJoin(scClock_, self.vc);
  self.tryResult = ok;
  emit(EventKind::AtomicRMW, self.id, a.id, op.site,
       AtomicArg::pack(static_cast<std::memory_order>(op.memOrder), ok, 0,
                       cur.storer));
  return old;
}

void ControlledRuntime::performFenceLocked(Tcb& self, PendingOp& op) {
  const std::memory_order mo = effectiveOrder(op.memOrder);
  if (mo == std::memory_order_seq_cst) vcJoin(self.vc, scClock_);
  if (isAcquire(mo) && !self.pendingAcq.empty()) {
    // Claim the release clocks earlier relaxed loads observed.
    vcJoin(self.vc, self.pendingAcq);
    self.pendingAcq.clear();
  }
  if (isRelease(mo)) self.releaseFence = true;
  if (mo == std::memory_order_seq_cst) vcJoin(scClock_, self.vc);
  emit(EventKind::Fence, self.id, kNoObject, op.site,
       AtomicArg::pack(static_cast<std::memory_order>(op.memOrder), false, 0,
                       kNoThread));
}

bool ControlledRuntime::performOpLocked(Tcb& self) {
  PendingOp& op = self.pending;
  switch (op.code) {
    case OpCode::Start:
      emit(EventKind::ThreadStart, self.id, self.id, op.site);
      return true;

    case OpCode::Spawn: {
      ThreadId cid = static_cast<ThreadId>(tcbs_.size() + 1);
      auto child = std::make_unique<Tcb>();
      child->id = cid;
      child->name = self.spawnName.empty() ? "T" + std::to_string(cid)
                                           : std::move(self.spawnName);
      child->st = St::Parked;
      child->pending = PendingOp{};
      child->pending.code = OpCode::Start;
      child->body = std::move(self.spawnFn);
      // Spawn is a happens-before edge: the child starts with the parent's
      // clock and per-location coherence floors.
      child->vc = self.vc;
      child->readFloor = self.readFloor;
      live_.push_back(child.get());
      tcbs_.push_back(std::move(child));
      emit(EventKind::ThreadSpawn, self.id, cid, op.site);
      op.target = cid;  // result read by spawnThread
      return true;
    }

    case OpCode::Lock:
      if (op.m->owner == self.id && op.m->recursive) {
        ++op.m->depth;
      } else {
        op.m->owner = self.id;
        op.m->depth = op.condResume ? std::max<std::uint32_t>(op.arg, 1) : 1;
        fr::lockAcquired(this, op.m->id, self.id);
        vcJoin(self.vc, op.m->relClock);  // acquire: sync with releasers
      }
      emit(op.condResume ? EventKind::CondWaitEnd : EventKind::MutexLock,
           self.id, op.m->id, op.site,
           op.condResume ? op.m->id : (op.everBlocked ? 1 : 0));
      return true;

    case OpCode::TryLock:
      if (op.m->owner == kNoThread ||
          (op.m->recursive && op.m->owner == self.id)) {
        if (op.m->owner == self.id) {
          ++op.m->depth;
        } else {
          op.m->owner = self.id;
          op.m->depth = 1;
          fr::lockAcquired(this, op.m->id, self.id);
          vcJoin(self.vc, op.m->relClock);
        }
        self.tryResult = true;
        emit(EventKind::MutexTryLockOk, self.id, op.m->id, op.site);
      } else {
        self.tryResult = false;
        emit(EventKind::MutexTryLockFail, self.id, op.m->id, op.site);
      }
      return true;

    case OpCode::Unlock:
      if (op.m->owner != self.id) {
        // Program error.  Abort without throwing: unlock is reachable from
        // destructors (LockGuard).
        if (!abort_) {
          failureMessage_ = "unlock of mutex " + objectInfo(op.m->id).name +
                            " not owned by " + self.name;
          beginAbortLocked(RunStatus::AssertFailed);
        }
        return false;
      }
      emit(EventKind::MutexUnlock, self.id, op.m->id, op.site);
      if (--op.m->depth == 0) {
        vcJoin(op.m->relClock, self.vc);  // release: publish our clock
        op.m->owner = kNoThread;
        fr::lockReleased(this, op.m->id);
      }
      return true;

    case OpCode::CondWait: {
      if (op.m->owner != self.id) {
        failLocked("condition wait on " + objectInfo(op.c->id).name +
                   " without holding its mutex");
      }
      // arg carries the mutex id: happens-before analyses need the implicit
      // release/reacquire edges of the wait.
      emit(EventKind::CondWaitBegin, self.id, op.c->id, op.site, op.m->id);
      std::uint32_t savedDepth = op.m->depth;
      vcJoin(op.m->relClock, self.vc);  // wait releases the mutex
      releaseMutexFullyLocked(*op.m);
      CondState* c = op.c;
      // Re-arm the pending op as the post-signal reacquire; the signaler
      // flips our state to Parked and the policy schedules the reacquire
      // once the mutex is free.
      MutexState* m = op.m;
      Site st = op.site;
      self.pending = PendingOp{};
      self.pending.code = OpCode::Lock;
      self.pending.m = m;
      self.pending.c = c;  // kept for deadlock diagnostics
      self.pending.condResume = true;
      self.pending.arg = savedDepth;
      self.pending.site = st;
      self.st = St::WaitCond;
      c->waiters.push_back(self.id);
      if (!park(self)) return false;
      // Scheduled again: the reacquire is enabled, perform it.
      m->owner = self.id;
      m->depth = savedDepth;
      fr::lockAcquired(this, m->id, self.id);
      vcJoin(self.vc, m->relClock);
      emit(EventKind::CondWaitEnd, self.id, c->id, st, m->id);
      return true;
    }

    case OpCode::CondSignal: {
      std::uint32_t woken = 0;
      if (!op.c->waiters.empty()) {
        ThreadId w = op.c->waiters.front();
        op.c->waiters.pop_front();
        tcbOf(w).st = St::Parked;  // now competes to reacquire its mutex
        woken = 1;
      }
      emit(EventKind::CondSignal, self.id, op.c->id, op.site, woken);
      return true;
    }

    case OpCode::CondBroadcast: {
      std::uint32_t woken = 0;
      while (!op.c->waiters.empty()) {
        ThreadId w = op.c->waiters.front();
        op.c->waiters.pop_front();
        tcbOf(w).st = St::Parked;
        ++woken;
      }
      emit(EventKind::CondBroadcast, self.id, op.c->id, op.site, woken);
      return true;
    }

    case OpCode::SemAcquire:
      --op.sem->permits;
      vcJoin(self.vc, op.sem->relClock);
      emit(EventKind::SemAcquire, self.id, op.sem->id, op.site,
           op.everBlocked ? 1 : 0);
      return true;

    case OpCode::RwRead:
      ++op.rw->readers;
      vcJoin(self.vc, op.rw->relClockW);  // readers sync with prior writers
      emit(EventKind::RwLockRead, self.id, op.rw->id, op.site,
           op.everBlocked ? 1 : 0);
      return true;

    case OpCode::RwWrite:
      op.rw->writer = self.id;
      vcJoin(self.vc, op.rw->relClockW);  // writers sync with everyone
      vcJoin(self.vc, op.rw->relClockR);
      emit(EventKind::RwLockWrite, self.id, op.rw->id, op.site,
           op.everBlocked ? 1 : 0);
      return true;

    case OpCode::RwUnlockR:
      if (op.rw->readers == 0) {
        if (!abort_) {
          failureMessage_ = "read-unlock of rwlock " +
                            objectInfo(op.rw->id).name + " with no readers";
          beginAbortLocked(RunStatus::AssertFailed);
        }
        return false;
      }
      emit(EventKind::RwUnlockRead, self.id, op.rw->id, op.site);
      vcJoin(op.rw->relClockR, self.vc);
      --op.rw->readers;
      return true;

    case OpCode::RwUnlockW:
      if (op.rw->writer != self.id) {
        if (!abort_) {
          failureMessage_ = "write-unlock of rwlock " +
                            objectInfo(op.rw->id).name + " not owned by " +
                            self.name;
          beginAbortLocked(RunStatus::AssertFailed);
        }
        return false;
      }
      emit(EventKind::RwUnlockWrite, self.id, op.rw->id, op.site);
      vcJoin(op.rw->relClockW, self.vc);
      op.rw->writer = kNoThread;
      return true;

    case OpCode::SemTryAcquire:
      if (op.sem->permits > 0) {
        --op.sem->permits;
        vcJoin(self.vc, op.sem->relClock);
        self.tryResult = true;
        emit(EventKind::SemAcquire, self.id, op.sem->id, op.site);
      } else {
        self.tryResult = false;
      }
      return true;

    case OpCode::SemRelease:
      op.sem->permits += op.arg;
      vcJoin(op.sem->relClock, self.vc);
      emit(EventKind::SemRelease, self.id, op.sem->id, op.site, op.arg);
      return true;

    case OpCode::BarrierArrive: {
      BarrierState* b = op.b;
      emit(EventKind::BarrierEnter, self.id, b->id, op.site,
           static_cast<std::uint32_t>(b->generation));
      vcJoin(b->clock, self.vc);  // arrival publishes to the generation
      ++b->arrived;
      Site st = op.site;
      if (b->arrived >= b->parties) {
        ++b->generation;
        b->arrived = 0;
        // Release every thread parked on this generation (including self).
        for (Tcb* t : live_) {
          if (t->st == St::WaitBarrier && t->pending.b == b) {
            t->st = St::Parked;
          }
        }
        self.st = St::Parked;
      } else {
        self.st = St::WaitBarrier;
      }
      if (!park(self)) return false;
      vcJoin(self.vc, b->clock);  // exit syncs with every arriver
      emit(EventKind::BarrierExit, self.id, b->id, st,
           static_cast<std::uint32_t>(b->generation));
      return true;
    }

    case OpCode::Join:
      // Join is a happens-before edge from everything the target did.
      vcJoin(self.vc, tcbOf(op.target).vc);
      emit(EventKind::ThreadJoin, self.id, op.target, op.site);
      return true;

    case OpCode::VarAccess:
      emit(op.access == Access::Write ? EventKind::VarWrite
                                      : EventKind::VarRead,
           self.id, op.var, op.site);
      return true;

    case OpCode::EvPoint:
      emit(op.evKind, self.id, op.var, op.site, op.arg);
      return true;

    case OpCode::AtomicLoad:
      self.atomicResult = performAtomicLoadLocked(self, op);
      return true;

    case OpCode::AtomicStore:
      performAtomicStoreLocked(self, op);
      return true;

    case OpCode::AtomicRmw:
      self.atomicResult = performAtomicRmwLocked(self, op);
      return true;

    case OpCode::Fence:
      performFenceLocked(self, op);
      return true;

    case OpCode::Yield:
      emit(EventKind::Yield, self.id, kNoObject, op.site);
      return true;

    case OpCode::Sleep:
      emit(EventKind::Yield, self.id, kNoObject, op.site, op.arg);
      return true;

    case OpCode::Finish:
      // Handled by threadFinish.
      return true;
  }
  return true;
}

void ControlledRuntime::visibleOp(PendingOp op, bool mayThrow,
                                  bool applyNoise) {
  Tcb* selfp = currentTcb();
  if (selfp == nullptr) {
    throw std::logic_error(
        "mtt: runtime operation called outside a managed thread");
  }
  Tcb& self = *selfp;
  if (applyNoise && self.noise.kind != NoiseRequest::Kind::None) {
    NoiseRequest nr = self.noise;
    self.noise = NoiseRequest{};
    if (nr.kind == NoiseRequest::Kind::Yield) {
      for (std::uint32_t i = 0; i < std::max<std::uint32_t>(nr.amount, 1);
           ++i) {
        PendingOp y;
        y.code = OpCode::Yield;
        y.injected = true;
        visibleOp(y, mayThrow, /*applyNoise=*/false);
      }
    } else if (nr.kind == NoiseRequest::Kind::Sleep) {
      PendingOp sl;
      sl.code = OpCode::Sleep;
      sl.arg = std::max<std::uint32_t>(nr.amount, 1);
      sl.injected = true;
      visibleOp(sl, mayThrow, /*applyNoise=*/false);
    }
  }
  if (abort_) {
    if (!mayThrow) return;
    awaitUnwindTurn(self);
    throw RunAborted{};
  }
  if (op.code == OpCode::Sleep) {
    op.wakeStep = steps_ + std::max<std::uint32_t>(op.arg, 1);
  }
  self.pending = op;
  self.st = St::Parked;
  if (!park(self) || !performOpLocked(self)) {
    if (mayThrow) throw RunAborted{};
  }
}

void ControlledRuntime::startFiber(Tcb& t) {
  if (spare_.empty()) {
    t.stack = mapStack();
    stacks_.push_back(t.stack);
  } else {
    t.stack = spare_.back();
    spare_.pop_back();
  }
#if !defined(__x86_64__)
  ::getcontext(&t.ctx);
  t.ctx.uc_stack.ss_sp = t.stack;
  t.ctx.uc_stack.ss_size = kFiberStackSize;
  t.ctx.uc_link = nullptr;  // trampoline never returns
  const auto self =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(this));
  ::makecontext(&t.ctx, reinterpret_cast<void (*)()>(&fiberEntry), 2,
                static_cast<unsigned>(self >> 32), static_cast<unsigned>(self));
#else
  t.sp = mtt_fiber_make(t.stack + kFiberStackSize, [](void* rt) {
    auto* self = static_cast<ControlledRuntime*>(rt);
    self->trampoline(*self->currentTcb());
  }, this);
#endif
#if MTT_ASAN_FIBERS
  // A reused stack may still carry the redzones of frames that never
  // returned (a finished thread's last frames).
  __asan_unpoison_memory_region(t.stack, kFiberStackSize);
#endif
#if MTT_TSAN_FIBERS
  t.tsanFiber = __tsan_create_fiber(0);
#endif
}

void ControlledRuntime::switchTo(Tcb* from, Tcb* to) {
  if (from == to) return;
  if (to != nullptr && to->stack == nullptr) startFiber(*to);
  const bool leaving = from != nullptr && from->st == St::Finished;
  // Reused only by a later startFiber, which runs after this switch on
  // another stack.
  if (leaving) spare_.push_back(std::exchange(from->stack, nullptr));
  tl_current = to;
#if MTT_ASAN_FIBERS
  void* fakeStack = nullptr;
  __sanitizer_start_switch_fiber(leaving ? nullptr : &fakeStack,
                                 to ? to->stack : callerStackBottom_,
                                 to ? kFiberStackSize : callerStackSize_);
#endif
#if MTT_TSAN_FIBERS
  __tsan_switch_to_fiber(to ? to->tsanFiber : callerTsanFiber_, 0);
#endif
#if !defined(__x86_64__)
  ucontext_t* const save = from ? &from->ctx : &callerCtx_;
  ucontext_t* const load = to ? &to->ctx : &callerCtx_;
#if MTT_ASAN_FIBERS
  // ASan intercepts swapcontext only to print a warning on stderr (which
  // would leak into CLI output); the annotations above are what it needs.
  volatile bool resumed = false;
  ::getcontext(save);
  if (!resumed) {
    resumed = true;
    ::setcontext(load);
  }
  __sanitizer_finish_switch_fiber(fakeStack, nullptr, nullptr);
#else
  ::swapcontext(save, load);
#endif
#else
  mtt_switch(from ? &from->sp : &callerSp_, to ? to->sp : callerSp_);
#if MTT_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fakeStack, nullptr, nullptr);
#endif
#endif
}

#if !defined(__x86_64__)
void ControlledRuntime::fiberEntry(unsigned hi, unsigned lo) {
  auto* rt = reinterpret_cast<ControlledRuntime*>(static_cast<std::uintptr_t>(
      (static_cast<std::uint64_t>(hi) << 32) | lo));
  rt->trampoline(*rt->currentTcb());
}
#endif

void ControlledRuntime::trampoline(Tcb& self) {
#if MTT_ASAN_FIBERS
  const void* fromBottom = nullptr;
  std::size_t fromSize = 0;
  __sanitizer_finish_switch_fiber(nullptr, &fromBottom, &fromSize);
  if (self.id == kMainThread) {  // main is always entered from run()
    callerStackBottom_ = fromBottom;
    callerStackSize_ = fromSize;
  }
#endif
  // First switched to when the policy schedules its Start: an abort marks
  // threads that never started finished instead of entering them.
  self.st = St::Running;
  lastRunning_ = self.id;
  emit(EventKind::ThreadStart, self.id, self.id, Site{});
  try {
    self.body();
  } catch (const RunAborted&) {
    // Expected unwind path during aborts.
  } catch (const std::exception& e) {
    // Only record the failure here.  Exception state is per OS thread, so
    // the abort's switch to another fiber waits until this handler is left
    // (threadFinish).
    if (!abort_) {
      failureMessage_ =
          "uncaught exception in " + self.name + ": " + e.what();
      beginAbortLocked(RunStatus::AssertFailed);
    }
  } catch (...) {
    // Nothing may escape a context entry function.
    if (!abort_) {
      failureMessage_ = "uncaught exception in " + self.name;
      beginAbortLocked(RunStatus::AssertFailed);
    }
  }
  threadFinish(self);
}

void ControlledRuntime::threadFinish(Tcb& self) {
  if (!abort_) {
    self.pending = PendingOp{};
    self.pending.code = OpCode::Finish;
    self.st = St::Parked;
    if (park(self)) emit(EventKind::ThreadFinish, self.id, self.id, Site{});
  }
  self.st = St::Finished;
  live_.erase(std::find(live_.begin(), live_.end(), &self));
  switchTo(&self, abort_ ? unwindTargetLocked() : scheduleNextLocked());
  std::abort();  // a finished thread is never resumed
}

RunResult ControlledRuntime::run(std::function<void(Runtime&)> body,
                                 const RunOptions& opts) {
  if (runActive_) {
    throw std::logic_error("mtt: ControlledRuntime::run is not reentrant");
  }
  runActive_ = true;
  tcbs_.clear();
  lastRunning_ = kNoThread;
  abort_ = false;
  status_ = RunStatus::Completed;
  failureMessage_.clear();
  steps_ = 0;
  maxSteps_ = opts.maxSteps == 0 ? ~std::uint64_t{0} : opts.maxSteps;
  blocked_.clear();
  decisionNoise_.clear();
  atomics_.clear();
  scClock_.clear();
  forceSeqCst_ = opts.forceSeqCst;
  resetEventCount();
  resetObjects();
  // Every stack is free again.  Handing them out in mapping order makes a
  // thread's stack a function of the schedule: the same schedule runs each
  // thread on the same stack on every run of this runtime.
  spare_.assign(stacks_.rbegin(), stacks_.rend());
  policy_->onRunStart(opts.seed);
  // Bind the (process-global) flight recorder to this runtime for the
  // duration of the run; a no-op unless fr::arm was called.
  fr::claim(this);
  hooks_.setTimingEnabled(opts.dispatchTiming);
  RunInfo info;
  info.programName = internName(opts.programName);
  info.seed = opts.seed;
  info.mode = RuntimeMode::Controlled;
  hooks_.dispatchRunStart(info);

  Stopwatch sw;
  auto main = std::make_unique<Tcb>();
  main->id = kMainThread;
  main->name = "main";
  main->st = St::Parked;
  main->pending = PendingOp{};
  main->pending.code = OpCode::Start;
  main->body = [this, b = std::move(body)] { b(*this); };
  live_.assign(1, main.get());
  tcbs_.push_back(std::move(main));
  // Run the managed threads on this OS thread; the last one to finish
  // switches back here.
  void* const outer = tl_current;  // non-null when run() is itself managed
#if MTT_TSAN_FIBERS
  callerTsanFiber_ = __tsan_get_current_fiber();
#endif
  switchTo(nullptr, scheduleNextLocked());
  tl_current = outer;
#if MTT_TSAN_FIBERS
  for (const auto& t : tcbs_) {
    if (t->tsanFiber != nullptr) __tsan_destroy_fiber(t->tsanFiber);
    t->tsanFiber = nullptr;
  }
#endif

  RunResult result;
  result.status = status_;
  result.failureMessage = failureMessage_;
  result.steps = steps_;
  result.blocked = blocked_;
  result.events = eventCount();
  result.wallSeconds = sw.elapsedSeconds();
  hooks_.dispatchRunEnd();
  result.dispatch = hooks_.stats();
  policy_->onRunEnd();
  fr::release(this);
  runActive_ = false;
  return result;
}

ThreadId ControlledRuntime::spawnThread(std::string name,
                                        std::function<void()> fn) {
  Tcb* self = currentTcb();
  if (self == nullptr) {
    throw std::logic_error("mtt: spawnThread outside a managed thread");
  }
  self->spawnName = std::move(name);
  self->spawnFn = std::move(fn);
  PendingOp op;
  op.code = OpCode::Spawn;
  op.site = site("spawn");
  visibleOp(op);
  return self->pending.target;
}

void ControlledRuntime::joinThread(ThreadId target, Site s) {
  PendingOp op;
  op.code = OpCode::Join;
  op.target = target;
  op.site = s;
  visibleOp(op);
}

void ControlledRuntime::reapThread(ThreadId target) noexcept {
  if (currentTcb() == nullptr) return;
  // A reap is a managed join that must not throw: during aborts it returns
  // immediately (serial unwinding already guarantees the target finished
  // before this frame unwinds); otherwise it blocks like a normal join.
  PendingOp op;
  op.code = OpCode::Join;
  op.target = target;
  try {
    visibleOp(op, /*mayThrow=*/false);
  } catch (...) {
    // visibleOp(mayThrow=false) only throws on API misuse; ignore in a dtor.
  }
}

void ControlledRuntime::yieldNow(Site s) {
  PendingOp op;
  op.code = OpCode::Yield;
  op.site = s;
  visibleOp(op);
}

void ControlledRuntime::sleepFor(std::chrono::microseconds d) {
  PendingOp op;
  op.code = OpCode::Sleep;
  // 1 virtual tick per 100us of requested sleep, clamped to keep virtual
  // time commensurate with maxSteps.
  auto ticks = static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(d.count() / 100, 1, 100000));
  op.arg = ticks;
  visibleOp(op);
}

void ControlledRuntime::evloopPoint(EventKind kind, ObjectId obj, Site s,
                                    std::uint32_t arg) {
  PendingOp op;
  op.code = OpCode::EvPoint;
  op.evKind = kind;
  op.var = obj;
  op.site = s;
  op.arg = arg;
  visibleOp(op);
}

void ControlledRuntime::postNoise(const NoiseRequest& req) {
  Tcb* self = currentTcb();
  if (self != nullptr) self->noise = req;
}

void ControlledRuntime::mutexLock(MutexState& m, Site s) {
  PendingOp op;
  op.code = OpCode::Lock;
  op.m = &m;
  op.site = s;
  visibleOp(op);
}

bool ControlledRuntime::mutexTryLock(MutexState& m, Site s) {
  PendingOp op;
  op.code = OpCode::TryLock;
  op.m = &m;
  op.site = s;
  visibleOp(op);
  return currentTcb()->tryResult;
}

void ControlledRuntime::mutexUnlock(MutexState& m, Site s) {
  PendingOp op;
  op.code = OpCode::Unlock;
  op.m = &m;
  op.site = s;
  visibleOp(op, /*mayThrow=*/false);
}

void ControlledRuntime::condWait(CondState& c, MutexState& m, Site s) {
  PendingOp op;
  op.code = OpCode::CondWait;
  op.c = &c;
  op.m = &m;
  op.site = s;
  visibleOp(op);
}

void ControlledRuntime::condSignal(CondState& c, Site s) {
  PendingOp op;
  op.code = OpCode::CondSignal;
  op.c = &c;
  op.site = s;
  visibleOp(op);
}

void ControlledRuntime::condBroadcast(CondState& c, Site s) {
  PendingOp op;
  op.code = OpCode::CondBroadcast;
  op.c = &c;
  op.site = s;
  visibleOp(op);
}

void ControlledRuntime::semAcquire(SemState& sem, Site s) {
  PendingOp op;
  op.code = OpCode::SemAcquire;
  op.sem = &sem;
  op.site = s;
  visibleOp(op);
}

bool ControlledRuntime::semTryAcquire(SemState& sem, Site s) {
  PendingOp op;
  op.code = OpCode::SemTryAcquire;
  op.sem = &sem;
  op.site = s;
  visibleOp(op);
  return currentTcb()->tryResult;
}

void ControlledRuntime::semRelease(SemState& sem, std::uint32_t n, Site s) {
  PendingOp op;
  op.code = OpCode::SemRelease;
  op.sem = &sem;
  op.arg = n;
  op.site = s;
  visibleOp(op, /*mayThrow=*/false);
}

void ControlledRuntime::rwLockRead(RwState& rw, Site s) {
  PendingOp op;
  op.code = OpCode::RwRead;
  op.rw = &rw;
  op.site = s;
  visibleOp(op);
}

void ControlledRuntime::rwUnlockRead(RwState& rw, Site s) {
  PendingOp op;
  op.code = OpCode::RwUnlockR;
  op.rw = &rw;
  op.site = s;
  visibleOp(op, /*mayThrow=*/false);
}

void ControlledRuntime::rwLockWrite(RwState& rw, Site s) {
  PendingOp op;
  op.code = OpCode::RwWrite;
  op.rw = &rw;
  op.site = s;
  visibleOp(op);
}

void ControlledRuntime::rwUnlockWrite(RwState& rw, Site s) {
  PendingOp op;
  op.code = OpCode::RwUnlockW;
  op.rw = &rw;
  op.site = s;
  visibleOp(op, /*mayThrow=*/false);
}

void ControlledRuntime::barrierWait(BarrierState& b, Site s) {
  PendingOp op;
  op.code = OpCode::BarrierArrive;
  op.b = &b;
  op.site = s;
  visibleOp(op);
}

void ControlledRuntime::varAccess(ObjectId var, Access a, Site s) {
  PendingOp op;
  op.code = OpCode::VarAccess;
  op.var = var;
  op.access = a;
  op.site = s;
  visibleOp(op);
}

std::uint64_t ControlledRuntime::atomicLoad(AtomicState& a,
                                            std::memory_order mo, Site s) {
  PendingOp op;
  op.code = OpCode::AtomicLoad;
  op.at = &a;
  op.memOrder = static_cast<std::uint8_t>(mo);
  op.site = s;
  visibleOp(op);
  return currentTcb()->atomicResult;
}

void ControlledRuntime::atomicStore(AtomicState& a, std::uint64_t v,
                                    std::memory_order mo, Site s) {
  PendingOp op;
  op.code = OpCode::AtomicStore;
  op.at = &a;
  op.aval = v;
  op.memOrder = static_cast<std::uint8_t>(mo);
  op.site = s;
  visibleOp(op);
}

std::uint64_t ControlledRuntime::atomicRmw(AtomicState& a, RmwOp rop,
                                           std::uint64_t operand,
                                           std::uint64_t expected,
                                           std::memory_order mo, Site s,
                                           bool* ok) {
  PendingOp op;
  op.code = OpCode::AtomicRmw;
  op.at = &a;
  op.rmwOp = rop;
  op.aval = operand;
  op.aexp = expected;
  op.memOrder = static_cast<std::uint8_t>(mo);
  op.site = s;
  visibleOp(op);
  Tcb* self = currentTcb();
  if (ok != nullptr) *ok = self->tryResult;
  return self->atomicResult;
}

void ControlledRuntime::atomicFence(std::memory_order mo, Site s) {
  PendingOp op;
  op.code = OpCode::Fence;
  op.memOrder = static_cast<std::uint8_t>(mo);
  op.site = s;
  visibleOp(op);
}

}  // namespace mtt::rt
