// Server-shaped programs on the instrumented event loop (mtt::evloop) —
// field-style bugs that live in *callback order*, not in raw thread
// interleavings.  All three run their callbacks on a single scheduler slot,
// so each callback is atomic; the nondeterminism the tools explore is which
// ready callback the loop dispatches next (NodeFz's bug class):
//
//   1. evloop_conn_pool      — an async connection pool where an operation's
//                              timeout callback races its completion
//                              callback; the buggy timeout releases the
//                              connection without claiming the operation, so
//                              the late completion releases it again
//                              (callback-reentrancy double-release).
//   2. evloop_lru_cache      — an LRU cache with deferred eviction; the
//                              eviction callback races a concurrent get()
//                              and, when its victim snapshot is stale,
//                              evicts an entry that was refreshed in
//                              between (stale-entry resurrection: the next
//                              get() misses on a must-be-resident key).
//   3. evloop_quota_sessions — a quota-based session scheduler serving ~128
//                              simulated sessions; the dispatcher's
//                              idle-sleep confirmation commits idleness
//                              without re-checking the queue, losing the
//                              wakeup of work enqueued inside the window
//                              (MTL's adaptive-sleep hazard) and stranding
//                              sessions forever.
//
// Each has a `_fixed` control variant repairing exactly the documented
// defect; the fixes are correct for *every* callback order (the control
// variants are exploration-clean), and the three bugs bucket under distinct
// triage fingerprints (different bug-marked sites and failure shapes).
#include <optional>
#include <string>
#include <vector>

#include "evloop/event_loop.hpp"
#include "suite/program.hpp"
#include "suite/register_parts.hpp"

namespace mtt::suite {
namespace {

using evloop::EventLoop;
using rt::CondVar;
using rt::LockGuard;
using rt::Mutex;
using rt::Runtime;
using rt::SharedArray;
using rt::SharedVar;

// ---------------------------------------------------------------------------
// 1. evloop_conn_pool — callback-reentrancy double-release.
// ---------------------------------------------------------------------------
//
// Each client operation acquires a pooled connection, then arms two
// callbacks against it: the completion (posted through an io-done hop, as a
// real async stack would) and a timeout timer.  Exactly one of them must
// release the connection.  The fixed timeout *claims* the operation (sets
// its done flag) before releasing; the buggy timeout releases without
// claiming, so when the completion arrives later it finds the operation
// unclaimed and releases the connection a second time — by then the pool
// may have handed it to another client.  release() checks ownership and
// reports the double release the way a production assert would.
class ConnPoolBase : public Program {
 public:
  explicit ConnPoolBase(bool buggy) : buggy_(buggy) {}

  std::string name() const override {
    return buggy_ ? "evloop_conn_pool" : "evloop_conn_pool_fixed";
  }

  std::string description() const override {
    return std::string(buggy_ ? "async connection pool with a "
                                "timeout/completion double-release"
                              : "async connection pool; the timeout claims "
                                "the operation before releasing (control)") +
           "; callbacks on a 1-slot event loop";
  }

  std::vector<BugInfo> bugs() const override {
    if (!buggy_) return {};
    return {BugInfo{
        "evloop_conn_pool.double-release", BugKind::AtomicityViolation,
        "the operation-timeout callback releases the pooled connection "
        "without claiming the operation, so the operation's completion "
        "callback — whenever the loop dispatches it after the timeout — "
        "releases the same connection again",
        {"pool.release.check", "pool.timeout.release"}}};
  }

  void reset() override {
    Program::reset();
    freeAtEnd_ = -1;
    completedOps_ = -1;
  }

  void body(Runtime& rt) override {
    constexpr int kConns = 2;
    constexpr int kOps = 4;

    EventLoop loop(rt, "pool.loop");
    SharedVar<int> freeCount(rt, "pool.free", kConns);
    SharedArray<int> owner(rt, "pool.owner", kConns, -1);  // op id or -1
    SharedArray<int> done(rt, "pool.done", kOps, 0);
    SharedVar<int> finished(rt, "pool.finished", 0);
    SharedVar<int> dropped(rt, "pool.dropped", 0);

    // All pool state is touched only from callbacks (single slot => atomic).
    auto acquire = [&](int op) -> int {
      for (int c = 0; c < kConns; ++c) {
        if (owner.read(c, site("pool.acquire.scan")) == -1) {
          owner.write(c, op, site("pool.acquire.take"));
          freeCount.write(freeCount.read(site("pool.free.read")) - 1,
                          site("pool.free.dec"));
          return c;
        }
      }
      return -1;
    };

    auto release = [&](int c, int op, Site s) {
      if (owner.read(c, buggy_ ? site("pool.release.check", BugMark::Yes)
                               : site("pool.release.check.ok")) != op) {
        rt.fail("conn pool: operation " + std::to_string(op) +
                " released connection " + std::to_string(c) +
                " it no longer owns (double release)");
      }
      owner.write(c, -1, s);
      freeCount.write(freeCount.read(site("pool.free.read2")) + 1,
                      site("pool.free.inc"));
      finished.write(finished.read(site("pool.fin.read")) + 1,
                     site("pool.fin.write"));
    };

    std::function<void(int, int)> startOp = [&](int op, int attempt) {
      int c = acquire(op);
      if (c < 0) {
        // Pool exhausted: retry later, as a real server would re-poll.
        if (attempt < 6) {
          loop.post([&startOp, op, attempt] { startOp(op, attempt + 1); },
                    site("pool.retry.post"));
        } else {
          dropped.write(dropped.read(site("pool.drop.read")) + 1,
                        site("pool.drop.write"));
        }
        return;
      }
      // Arm the timeout timer for the operation...
      loop.postDelayed(
          [&, op, c] {
            if (done.read(op, site("pool.timeout.done")) == 1) return;
            if (!buggy_) {
              // FIX: the timeout claims the operation, so the late
              // completion sees it settled and does nothing.
              done.write(op, 1, site("pool.timeout.claim"));
            }
            // BUG (buggy_): release without claiming — the completion will
            // find the operation unclaimed and release again.
            release(c, op,
                    buggy_ ? site("pool.timeout.release", BugMark::Yes)
                           : site("pool.timeout.release.ok"));
          },
          1 + op % 2, site("pool.timeout.post"));
      // ...and the async completion, arriving via an io-done hop.
      loop.post(
          [&, op, c] {
            loop.post(
                [&, op, c] {
                  if (done.read(op, site("pool.complete.done")) == 1) return;
                  done.write(op, 1, site("pool.complete.claim"));
                  release(c, op, site("pool.complete.release"));
                },
                site("pool.complete.post"));
          },
          site("pool.iodone.post"));
    };

    for (int op = 0; op < kOps; ++op) {
      loop.post([&startOp, op] { startOp(op, 0); }, site("pool.start.post"));
    }
    loop.drain();

    freeAtEnd_ = freeCount.plainGet();
    completedOps_ = finished.plainGet();
    setOutcome("free=" + std::to_string(freeAtEnd_) +
               " finished=" + std::to_string(completedOps_) +
               " dropped=" + std::to_string(dropped.plainGet()));
  }

  Verdict evaluate(const rt::RunResult& r) const override {
    if (!r.ok()) return Verdict::BugManifested;
    // Ledger invariant: every connection back in the pool exactly once.
    constexpr int kConns = 2;
    return freeAtEnd_ == kConns ? Verdict::Pass : Verdict::BugManifested;
  }

 protected:
  bool buggy_;
  int freeAtEnd_ = -1;
  int completedOps_ = -1;
};

class ConnPool : public ConnPoolBase {
 public:
  ConnPool() : ConnPoolBase(true) {}
};
class ConnPoolFixed : public ConnPoolBase {
 public:
  ConnPoolFixed() : ConnPoolBase(false) {}
};

// ---------------------------------------------------------------------------
// 2. evloop_lru_cache — eviction callback races a get (stale resurrection).
// ---------------------------------------------------------------------------
//
// put() schedules eviction of the current LRU victim as a *deferred
// callback*, snapshotting the victim's recency stamp at decision time.  A
// get() that lands between the decision and the callback refreshes the
// victim.  The buggy eviction trusts its snapshot and removes the entry
// anyway; the application's bookkeeping still records the key as resident,
// so the next get() — a key the cache guarantees resident — misses
// ("resurrects" a stale entry from the backing store).  The fixed eviction
// notices the stale snapshot and re-picks the *current* LRU.
class LruCacheBase : public Program {
 public:
  explicit LruCacheBase(bool buggy) : buggy_(buggy) {}

  std::string name() const override {
    return buggy_ ? "evloop_lru_cache" : "evloop_lru_cache_fixed";
  }

  std::string description() const override {
    return std::string(buggy_ ? "LRU cache whose deferred eviction callback "
                                "trusts a stale victim snapshot"
                              : "LRU cache whose deferred eviction re-picks "
                                "the current LRU (control)") +
           "; eviction races concurrent gets on a 1-slot event loop";
  }

  std::vector<BugInfo> bugs() const override {
    if (!buggy_) return {};
    return {BugInfo{
        "evloop_lru_cache.stale-eviction", BugKind::OrderViolation,
        "the deferred eviction callback removes the victim chosen at "
        "put() time even when a concurrent get() refreshed it in between, "
        "so a key the cache promised resident is gone at the next get()",
        {"lru.evict.stale", "lru.get.resurrected"}}};
  }

  void reset() override {
    Program::reset();
    resurrectable_ = -1;
  }

  void body(Runtime& rt) override {
    constexpr int kKeys = 4;
    constexpr int kCap = 2;
    constexpr int A = 0, B = 1, C = 2;

    EventLoop loop(rt, "lru.loop");
    SharedArray<int> present(rt, "lru.present", kKeys, 0);
    SharedArray<int> lastTouch(rt, "lru.touch", kKeys, 0);
    // The application-level promise: keys it has put or recently hit must
    // stay resident (this is the bookkeeping the bug violates).
    SharedArray<int> mustResident(rt, "lru.resident", kKeys, 0);
    SharedVar<int> clock(rt, "lru.clock", 0);

    auto touch = [&](int k) {
      int now = clock.read(site("lru.clock.read")) + 1;
      clock.write(now, site("lru.clock.write"));
      lastTouch.write(k, now, site("lru.touch.write"));
      mustResident.write(k, 1, site("lru.resident.set"));
    };

    auto sizeNow = [&] {
      int n = 0;
      for (int k = 0; k < kKeys; ++k) {
        n += present.read(k, site("lru.size.scan"));
      }
      return n;
    };

    auto currentLru = [&]() -> int {
      int victim = -1, oldest = 0;
      for (int k = 0; k < kKeys; ++k) {
        if (present.read(k, site("lru.lru.scan")) == 0) continue;
        int t = lastTouch.read(k, site("lru.lru.stamp"));
        if (victim == -1 || t < oldest) {
          victim = k;
          oldest = t;
        }
      }
      return victim;
    };

    std::function<void(int)> put = [&](int k) {
      present.write(k, 1, site("lru.put.present"));
      touch(k);
      if (sizeNow() > kCap) {
        int victim = currentLru();
        int snapshot = lastTouch.read(victim, site("lru.evict.snapshot"));
        // Deferred eviction: runs whenever the loop gets to it.
        loop.post(
            [&, victim, snapshot] {
              if (present.read(victim, site("lru.evict.present")) == 0) {
                return;  // already gone
              }
              int nowStamp =
                  lastTouch.read(victim, site("lru.evict.recheck"));
              if (nowStamp == snapshot) {
                // Victim untouched since the decision: legitimate eviction.
                present.write(victim, 0, site("lru.evict.apply"));
                mustResident.write(victim, 0, site("lru.evict.retire"));
                return;
              }
              if (buggy_) {
                // BUG: trust the stale snapshot — evict the refreshed entry
                // while the bookkeeping still promises it resident.
                present.write(victim, 0, site("lru.evict.stale", BugMark::Yes));
              } else if (sizeNow() > kCap) {
                // FIX: the snapshot is stale; evict the *current* LRU.
                int v2 = currentLru();
                present.write(v2, 0, site("lru.evict.repick"));
                mustResident.write(v2, 0, site("lru.evict.repick.retire"));
              }
            },
            site("lru.evict.post"));
      }
    };

    std::function<void(int)> get = [&](int k) {
      if (present.read(k, site("lru.get.probe")) == 1) {
        touch(k);  // hit refreshes recency
        return;
      }
      if (mustResident.read(k, buggy_
                                   ? site("lru.get.resurrected", BugMark::Yes)
                                   : site("lru.get.resurrected.ok")) == 1) {
        rt.fail("lru cache: key " + std::to_string(k) +
                " promised resident but missing — stale eviction "
                "resurrected it from the backing store");
      }
      put(k);  // plain miss: refetch
    };

    loop.post(
        [&] {
          put(A);
          put(B);
        },
        site("lru.warm.post"));
    loop.post(
        [&] {
          put(C);  // overflows capacity: schedules eviction of LRU (= A)
          // The racing reads: get(A) refreshes the victim, the chained
          // second get(A) observes whether the stale eviction removed it.
          loop.post(
              [&] {
                get(A);
                loop.post([&] { get(A); }, site("lru.reread.post"));
              },
              site("lru.read.post"));
          loop.post([&] { get(B); }, site("lru.mixer.post"));
        },
        site("lru.fill.post"));
    loop.drain();

    // Final-state oracle input: a key still promised resident but absent.
    resurrectable_ = 0;
    for (int k = 0; k < kKeys; ++k) {
      if (mustResident.plainGet(k) == 1 && present.plainGet(k) == 0) {
        resurrectable_ = 1;
      }
    }
    setOutcome("resident-broken=" + std::to_string(resurrectable_));
  }

  Verdict evaluate(const rt::RunResult& r) const override {
    if (!r.ok()) return Verdict::BugManifested;
    return resurrectable_ == 0 ? Verdict::Pass : Verdict::BugManifested;
  }

 protected:
  bool buggy_;
  int resurrectable_ = -1;
};

class LruCache : public LruCacheBase {
 public:
  LruCache() : LruCacheBase(true) {}
};
class LruCacheFixed : public LruCacheBase {
 public:
  LruCacheFixed() : LruCacheBase(false) {}
};

// ---------------------------------------------------------------------------
// 3. evloop_quota_sessions — lost wakeup in the idle-sleep confirmation.
// ---------------------------------------------------------------------------
//
// A dispatcher serves a queue of session work items, up to `quota` per
// activation, re-posting itself while work remains.  When the queue looks
// empty it *defers* going idle (an adaptive sleep: post a delayed
// confirm-idle callback) — but the buggy confirmation commits idleness
// without re-checking the queue.  Work enqueued inside that window sees the
// dispatcher still marked active and does not wake it; after the
// confirmation commits, nobody ever dispatches again and the remaining
// sessions are stranded: main blocks forever on the all-done condvar (a
// deadlock under the controlled runtime, a watchdog hang natively).
class QuotaSessionsBase : public Program {
 public:
  explicit QuotaSessionsBase(bool buggy) : buggy_(buggy) {}

  std::string name() const override {
    return buggy_ ? "evloop_quota_sessions" : "evloop_quota_sessions_fixed";
  }

  std::string description() const override {
    return std::string(buggy_ ? "quota-based session scheduler whose "
                                "idle-sleep confirmation loses wakeups"
                              : "quota-based session scheduler; confirm-idle "
                                "re-checks the queue (control)") +
           "; ~128 simulated sessions on a 1-slot event loop";
  }

  std::vector<BugInfo> bugs() const override {
    if (!buggy_) return {};
    return {BugInfo{
        "evloop_quota_sessions.lost-wakeup", BugKind::LostWakeup,
        "the dispatcher defers going idle with a delayed confirm-idle "
        "callback but commits idleness without re-checking the session "
        "queue; work enqueued between the idle decision and the "
        "confirmation sees the dispatcher still active, posts no wakeup, "
        "and is stranded forever",
        {"sess.idle.commit", "sess.wake.check"}}};
  }

  void reset() override {
    Program::reset();
    completedAtEnd_ = -1;
  }

  void body(Runtime& rt) override {
    constexpr int kSessions = 128;
    constexpr int kQuota = 4;
    constexpr int kArrivalBatch = 16;

    // The loop registers its objects first (their ids are part of the
    // recorded schedule) but must be destroyed first: its destructor reaps
    // the tasklets, which in an aborted native run are still executing
    // callbacks over the state declared below.  reapLoop, declared last,
    // does that.
    std::optional<EventLoop> loopSlot;
    EventLoop& loop = loopSlot.emplace(rt, "sess.loop");
    // Callback-owned state (single slot => callbacks are atomic).
    std::vector<int> pending;
    std::vector<int> roundsLeft(kSessions, 0);
    SharedVar<int> pendingCount(rt, "sess.pending", 0);
    SharedVar<int> dispActive(rt, "sess.active", 1);
    SharedVar<int> completed(rt, "sess.completed", 0);
    Mutex doneLock(rt, "sess.doneLock");
    CondVar allDone(rt, "sess.allDone");

    std::function<void()> dispatch;  // forward declaration for enqueue

    auto enqueue = [&](int s) {
      pending.push_back(s);
      pendingCount.write(static_cast<int>(pending.size()),
                         site("sess.pending.write"));
      if (dispActive.read(buggy_ ? site("sess.wake.check", BugMark::Yes)
                                 : site("sess.wake.check.ok")) == 0) {
        dispActive.write(1, site("sess.wake.set"));
        loop.post(dispatch, site("sess.wake.post"));
      }
      // else: a dispatcher or confirm-idle callback is in flight and is
      // trusted to see the queue — which is exactly what the buggy
      // confirm-idle fails to do.
    };

    auto finishSession = [&](int s) {
      (void)s;
      LockGuard g(doneLock, site("sess.done.lock"));
      int n = completed.read(site("sess.done.read")) + 1;
      completed.write(n, site("sess.done.write"));
      if (n == kSessions) allDone.broadcast(site("sess.done.signal"));
    };

    std::function<void(int)> work = [&](int s) {
      if (roundsLeft[s] > 1) {
        --roundsLeft[s];
        // The session needs another round, but only becomes ready after
        // simulated I/O latency long enough to outlast the first-round
        // backlog — its re-enqueue arrives as a straggler while the
        // dispatcher is deciding whether to go idle, which is exactly the
        // hazard window.
        loop.postDelayed([&enqueue, s] { enqueue(s); },
                         600 + (s * 37) % 600, site("sess.ready.post"));
      } else {
        finishSession(s);
      }
    };

    dispatch = [&] {
      for (int i = 0; i < kQuota && !pending.empty(); ++i) {
        int s = pending.front();
        pending.erase(pending.begin());
        pendingCount.write(static_cast<int>(pending.size()),
                           site("sess.pending.take"));
        loop.post([&work, s] { work(s); }, site("sess.work.post"));
      }
      if (!pending.empty()) {
        loop.post(dispatch, site("sess.repost"));
        return;
      }
      // Adaptive sleep: don't go idle immediately — confirm after a delay.
      loop.postDelayed(
          [&] {
            if (buggy_) {
              // BUG: commit idleness without re-checking the queue.  Any
              // work enqueued since the idle decision saw active==1 and
              // posted no wakeup; it is now stranded.
              dispActive.write(0, site("sess.idle.commit", BugMark::Yes));
              return;
            }
            // FIX: re-check the queue before committing.
            if (pendingCount.read(site("sess.idle.recheck")) > 0) {
              loop.post(dispatch, site("sess.idle.resume"));
              return;
            }
            dispActive.write(0, site("sess.idle.commit.ok"));
          },
          250, site("sess.idle.post"));
    };

    struct ReapLoop {
      std::optional<EventLoop>& slot;
      ~ReapLoop() { slot.reset(); }
    } reapLoop{loopSlot};

    // Sessions arrive in batches, racing the dispatcher; odd sessions need
    // two rounds of service (their re-queues race the idle decision).
    for (int b = 0; b < kSessions / kArrivalBatch; ++b) {
      loop.post(
          [&, b] {
            for (int i = 0; i < kArrivalBatch; ++i) {
              int s = b * kArrivalBatch + i;
              // One session per batch is a two-rounder; its delayed
              // re-enqueue becomes an endgame straggler.
              roundsLeft[s] = (s % kArrivalBatch == 1) ? 2 : 1;
              enqueue(s);
            }
          },
          site("sess.arrive.post"));
    }
    loop.post(dispatch, site("sess.dispatch.post"));

    // Main waits for all sessions — forever, if wakeups were lost.
    {
      LockGuard g(doneLock, site("sess.main.lock"));
      while (completed.read(site("sess.main.read")) < kSessions) {
        allDone.wait(doneLock, site("sess.main.wait"));
      }
    }
    loop.drain();

    completedAtEnd_ = completed.plainGet();
    setOutcome("completed=" + std::to_string(completedAtEnd_) + "/" +
               std::to_string(kSessions));
  }

  Verdict evaluate(const rt::RunResult& r) const override {
    if (!r.ok()) return Verdict::BugManifested;
    constexpr int kSessions = 128;
    return completedAtEnd_ == kSessions ? Verdict::Pass
                                        : Verdict::BugManifested;
  }

 protected:
  bool buggy_;
  int completedAtEnd_ = -1;
};

class QuotaSessions : public QuotaSessionsBase {
 public:
  QuotaSessions() : QuotaSessionsBase(true) {}
};
class QuotaSessionsFixed : public QuotaSessionsBase {
 public:
  QuotaSessionsFixed() : QuotaSessionsBase(false) {}
};

}  // namespace

void registerEvloopPrograms() {
  auto& reg = ProgramRegistry::instance();
  const std::vector<std::string> tags{"evloop", "server"};
  reg.add("evloop_conn_pool", [] { return std::make_unique<ConnPool>(); },
          tags);
  reg.add("evloop_conn_pool_fixed",
          [] { return std::make_unique<ConnPoolFixed>(); }, tags);
  reg.add("evloop_lru_cache", [] { return std::make_unique<LruCache>(); },
          tags);
  reg.add("evloop_lru_cache_fixed",
          [] { return std::make_unique<LruCacheFixed>(); }, tags);
  reg.add("evloop_quota_sessions",
          [] { return std::make_unique<QuotaSessions>(); }, tags);
  reg.add("evloop_quota_sessions_fixed",
          [] { return std::make_unique<QuotaSessionsFixed>(); }, tags);
}

}  // namespace mtt::suite
