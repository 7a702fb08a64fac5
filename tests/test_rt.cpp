// Tests for the mtt runtime: controlled scheduler semantics, native mode,
// policies, determinism, deadlock detection, and the primitive API.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>
#include <unwind.h>

#include <cfenv>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "core/stats.hpp"
#include "evloop/event_loop.hpp"
#include "rt/controlled_runtime.hpp"
#include "rt/flight_recorder.hpp"
#include "rt/harness.hpp"
#include "rt/primitives.hpp"
#include "test_util.hpp"

namespace mtt::rt {
namespace {

using testutil::EventCollector;

RunOptions seeded(std::uint64_t seed) {
  RunOptions o;
  o.seed = seed;
  return o;
}

// ---------------------------------------------------------------------------
// Controlled mode: basic lifecycle.
// ---------------------------------------------------------------------------

TEST(Controlled, EmptyBodyCompletes) {
  RunResult r = runOnce(RuntimeMode::Controlled, [](Runtime&) {});
  EXPECT_TRUE(r.ok());
  EXPECT_GE(r.steps, 1u);
}

TEST(Controlled, StartAndFinishEventsEmitted) {
  EventCollector col;
  RunResult r =
      runOnce(RuntimeMode::Controlled, [](Runtime&) {}, seeded(0), {&col});
  ASSERT_TRUE(r.ok());
  auto evs = col.events();
  ASSERT_GE(evs.size(), 2u);
  EXPECT_EQ(evs.front().kind, EventKind::ThreadStart);
  EXPECT_EQ(evs.front().thread, kMainThread);
  EXPECT_EQ(evs.back().kind, EventKind::ThreadFinish);
  EXPECT_TRUE(col.started());
  EXPECT_TRUE(col.ended());
  EXPECT_EQ(col.info().mode, RuntimeMode::Controlled);
}

TEST(Controlled, SequenceNumbersAreDenseAndOrdered) {
  EventCollector col;
  runOnce(
      RuntimeMode::Controlled,
      [](Runtime& rt) {
        SharedVar<int> x(rt, "x");
        x.write(1);
        x.read();
      },
      seeded(0), {&col});
  auto evs = col.events();
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].seq, i + 1);
  }
}

TEST(Controlled, SpawnJoinLifecycle) {
  EventCollector col;
  RunResult r = runOnce(
      RuntimeMode::Controlled,
      [](Runtime& rt) {
        SharedVar<int> x(rt, "x", 0);
        Thread t(rt, "child", [&] { x.write(42); });
        t.join();
        rt.check(x.read() == 42, "child write visible after join");
      },
      seeded(1), {&col});
  EXPECT_TRUE(r.ok()) << r.failureMessage;
  EXPECT_EQ(col.countKind(EventKind::ThreadSpawn), 1u);
  EXPECT_EQ(col.countKind(EventKind::ThreadJoin), 1u);
  EXPECT_EQ(col.countKind(EventKind::ThreadStart), 2u);
  EXPECT_EQ(col.countKind(EventKind::ThreadFinish), 2u);
}

TEST(Controlled, SpawnEventPrecedesChildStart) {
  EventCollector col;
  runOnce(
      RuntimeMode::Controlled,
      [](Runtime& rt) {
        Thread t(rt, "child", [] {});
        t.join();
      },
      seeded(3), {&col});
  auto evs = col.events();
  std::size_t spawnAt = 0, startAt = 0;
  for (std::size_t i = 0; i < evs.size(); ++i) {
    if (evs[i].kind == EventKind::ThreadSpawn) spawnAt = i;
    if (evs[i].kind == EventKind::ThreadStart && evs[i].thread == 2) {
      startAt = i;
    }
  }
  EXPECT_LT(spawnAt, startAt);
}

TEST(Controlled, ThreadNamesResolve) {
  runOnce(RuntimeMode::Controlled, [](Runtime& rt) {
    EXPECT_EQ(rt.threadName(kMainThread), "main");
    Thread t(rt, "worker", [&rt] {
      EXPECT_EQ(rt.threadName(rt.currentThread()), "worker");
    });
    t.join();
  });
}

TEST(Controlled, ManyThreadsAllRun) {
  RunResult r = runOnce(
      RuntimeMode::Controlled,
      [](Runtime& rt) {
        SharedVar<int> done(rt, "done", 0);
        Mutex m(rt, "m");
        std::vector<Thread> ts;
        for (int i = 0; i < 8; ++i) {
          ts.emplace_back(rt, "w" + std::to_string(i), [&] {
            LockGuard g(m);
            done.write(done.read() + 1);
          });
        }
        for (auto& t : ts) t.join();
        rt.check(done.read() == 8, "all workers ran");
      },
      seeded(7));
  EXPECT_TRUE(r.ok()) << r.failureMessage;
}

// ---------------------------------------------------------------------------
// Controlled mode: determinism & policies.
// ---------------------------------------------------------------------------

void racyIncrementBody(Runtime& rt) {
  SharedVar<int> counter(rt, "counter", 0);
  auto inc = [&] {
    for (int i = 0; i < 3; ++i) {
      int v = counter.read(site("inc.read"));
      counter.write(v + 1, site("inc.write"));
    }
  };
  Thread a(rt, "a", inc), b(rt, "b", inc);
  a.join();
  b.join();
  // Record final value through the failure message channel for inspection.
  if (counter.read() != 6) rt.fail("lost update: " + std::to_string(counter.plainGet()));
}

TEST(Controlled, SameSeedSameSchedule) {
  EventCollector c1, c2;
  runOnce(RuntimeMode::Controlled, racyIncrementBody, seeded(123), {&c1});
  runOnce(RuntimeMode::Controlled, racyIncrementBody, seeded(123), {&c2});
  EXPECT_EQ(c1.signature(), c2.signature());
}

TEST(Controlled, DifferentSeedsEventuallyDiffer) {
  std::set<std::string> sigs;
  for (std::uint64_t s = 0; s < 10; ++s) {
    EventCollector c;
    runOnce(RuntimeMode::Controlled, racyIncrementBody, seeded(s), {&c});
    sigs.insert(c.signature());
  }
  EXPECT_GT(sigs.size(), 1u);
}

TEST(Controlled, RoundRobinMasksRace) {
  // The deterministic "unit test" scheduler never exposes the lost update:
  // each thread runs to completion.
  for (std::uint64_t s = 0; s < 5; ++s) {
    RunResult r =
        runOnce(RuntimeMode::Controlled, racyIncrementBody, seeded(s), {},
                std::make_unique<RoundRobinPolicy>());
    EXPECT_TRUE(r.ok()) << "seed " << s << ": " << r.failureMessage;
  }
}

TEST(Controlled, RandomPolicyExposesRaceOnSomeSeed) {
  int failures = 0;
  for (std::uint64_t s = 0; s < 40; ++s) {
    RunResult r =
        runOnce(RuntimeMode::Controlled, racyIncrementBody, seeded(s), {},
                std::make_unique<RandomPolicy>());
    if (r.status == RunStatus::AssertFailed) ++failures;
  }
  EXPECT_GT(failures, 0) << "random scheduling should expose the lost update";
}

TEST(Controlled, PriorityPolicyRunsToCompletion) {
  for (std::uint64_t s = 0; s < 10; ++s) {
    RunResult r =
        runOnce(RuntimeMode::Controlled, racyIncrementBody, seeded(s), {},
                std::make_unique<PriorityPolicy>(3));
    EXPECT_NE(r.status, RunStatus::Deadlock);
    EXPECT_NE(r.status, RunStatus::StepLimit);
  }
}

TEST(Controlled, MutexPreventsLostUpdateUnderAnySeed) {
  auto body = [](Runtime& rt) {
    SharedVar<int> counter(rt, "counter", 0);
    Mutex m(rt, "m");
    auto inc = [&] {
      for (int i = 0; i < 3; ++i) {
        LockGuard g(m);
        counter.write(counter.read() + 1);
      }
    };
    Thread a(rt, "a", inc), b(rt, "b", inc);
    a.join();
    b.join();
    rt.check(counter.read() == 6, "locked increments are atomic");
  };
  for (std::uint64_t s = 0; s < 25; ++s) {
    RunResult r = runOnce(RuntimeMode::Controlled, body, seeded(s));
    EXPECT_TRUE(r.ok()) << "seed " << s << ": " << r.failureMessage;
  }
}

// ---------------------------------------------------------------------------
// Controlled mode: record & replay.
// ---------------------------------------------------------------------------

TEST(Controlled, RecordedScheduleReplaysExactly) {
  // Find a seed that fails, record it, replay it: same failure, same events.
  for (std::uint64_t s = 0; s < 64; ++s) {
    RecordingPolicy rec(std::make_unique<RandomPolicy>());
    EventCollector c1;
    RunResult r1 = runOnce(RuntimeMode::Controlled, racyIncrementBody,
                           seeded(s), {&c1}, std::make_unique<PolicyRef>(rec));
    if (r1.status != RunStatus::AssertFailed) continue;

    ReplayPolicy rep(rec.schedule());
    EventCollector c2;
    RunResult r2 = runOnce(RuntimeMode::Controlled, racyIncrementBody,
                           seeded(s), {&c2}, std::make_unique<PolicyRef>(rep));
    EXPECT_EQ(r2.status, RunStatus::AssertFailed);
    EXPECT_EQ(r2.failureMessage, r1.failureMessage);
    EXPECT_EQ(c2.signature(), c1.signature());
    EXPECT_FALSE(rep.diverged());
    return;
  }
  FAIL() << "no failing seed found to exercise replay";
}

TEST(Controlled, ReplayOfForeignScheduleDiverges) {
  Schedule bogus = Schedule::fromThreads({kMainThread});  // far too short
  ReplayPolicy rep(bogus);
  RunResult r = runOnce(RuntimeMode::Controlled, racyIncrementBody, seeded(0),
                        {}, std::make_unique<PolicyRef>(rep));
  EXPECT_TRUE(rep.diverged());
  // Fallback keeps the run terminating.
  EXPECT_NE(r.status, RunStatus::StepLimit);
}

// ---------------------------------------------------------------------------
// Controlled mode: deadlock detection.
// ---------------------------------------------------------------------------

void lockInversionBody(Runtime& rt) {
  Mutex a(rt, "A"), b(rt, "B");
  Thread t1(rt, "t1", [&] {
    LockGuard ga(a, site("t1.lockA"));
    LockGuard gb(b, site("t1.lockB"));
  });
  Thread t2(rt, "t2", [&] {
    LockGuard gb(b, site("t2.lockB"));
    LockGuard ga(a, site("t2.lockA"));
  });
  t1.join();
  t2.join();
}

TEST(Controlled, LockInversionDeadlocksOnSomeSeed) {
  int deadlocks = 0, completions = 0;
  for (std::uint64_t s = 0; s < 40; ++s) {
    RunResult r = runOnce(RuntimeMode::Controlled, lockInversionBody,
                          seeded(s));
    if (r.deadlocked()) {
      ++deadlocks;
      // The report names both deadlocked worker threads plus main (blocked
      // in join on them).
      EXPECT_GE(r.blocked.size(), 2u);
      bool sawMutexWait = false;
      for (const auto& b : r.blocked) {
        if (b.waitingFor.find("mutex") != std::string::npos) {
          sawMutexWait = true;
        }
      }
      EXPECT_TRUE(sawMutexWait);
    } else if (r.ok()) {
      ++completions;
    }
  }
  EXPECT_GT(deadlocks, 0);
  EXPECT_GT(completions, 0);
}

TEST(Controlled, OrderedLocksNeverDeadlock) {
  auto body = [](Runtime& rt) {
    Mutex a(rt, "A"), b(rt, "B");
    auto worker = [&] {
      LockGuard ga(a);
      LockGuard gb(b);
    };
    Thread t1(rt, "t1", worker), t2(rt, "t2", worker);
    t1.join();
    t2.join();
  };
  for (std::uint64_t s = 0; s < 30; ++s) {
    RunResult r = runOnce(RuntimeMode::Controlled, body, seeded(s));
    EXPECT_TRUE(r.ok()) << "seed " << s;
  }
}

TEST(Controlled, WaitWithoutSignalIsDeadlock) {
  RunResult r = runOnce(RuntimeMode::Controlled, [](Runtime& rt) {
    Mutex m(rt, "m");
    CondVar cv(rt, "cv");
    LockGuard g(m);
    cv.wait(m);
  });
  EXPECT_TRUE(r.deadlocked());
  ASSERT_EQ(r.blocked.size(), 1u);
  EXPECT_NE(r.blocked[0].waitingFor.find("condvar"), std::string::npos);
}

TEST(Controlled, SemaphoreStarvationIsDeadlock) {
  RunResult r = runOnce(RuntimeMode::Controlled, [](Runtime& rt) {
    Semaphore sem(rt, "sem", 0);
    sem.acquire();
  });
  EXPECT_TRUE(r.deadlocked());
}

// ---------------------------------------------------------------------------
// Controlled mode: condition variables, semaphores, barriers.
// ---------------------------------------------------------------------------

void producerConsumerBody(Runtime& rt) {
  Mutex m(rt, "m");
  CondVar notEmpty(rt, "notEmpty");
  SharedVar<int> item(rt, "item", 0);
  SharedVar<int> ready(rt, "ready", 0);
  Thread consumer(rt, "consumer", [&] {
    LockGuard g(m);
    while (ready.read() == 0) notEmpty.wait(m);
    rt.check(item.read() == 99, "consumed the produced item");
  });
  Thread producer(rt, "producer", [&] {
    LockGuard g(m);
    item.write(99);
    ready.write(1);
    notEmpty.signal();
  });
  consumer.join();
  producer.join();
}

TEST(Controlled, ProducerConsumerCorrectUnderManySeeds) {
  for (std::uint64_t s = 0; s < 30; ++s) {
    RunResult r = runOnce(RuntimeMode::Controlled, producerConsumerBody,
                          seeded(s));
    EXPECT_TRUE(r.ok()) << "seed " << s << ": " << to_string(r.status) << " "
                        << r.failureMessage;
  }
}

TEST(Controlled, BroadcastWakesAllWaiters) {
  auto body = [](Runtime& rt) {
    Mutex m(rt, "m");
    CondVar cv(rt, "cv");
    SharedVar<int> go(rt, "go", 0);
    SharedVar<int> woke(rt, "woke", 0);
    std::vector<Thread> waiters;
    for (int i = 0; i < 3; ++i) {
      waiters.emplace_back(rt, "w" + std::to_string(i), [&] {
        LockGuard g(m);
        while (go.read() == 0) cv.wait(m);
        woke.write(woke.read() + 1);
      });
    }
    Thread waker(rt, "waker", [&] {
      LockGuard g(m);
      go.write(1);
      cv.broadcast();
    });
    for (auto& w : waiters) w.join();
    waker.join();
    rt.check(woke.read() == 3, "all waiters woke");
  };
  for (std::uint64_t s = 0; s < 15; ++s) {
    RunResult r = runOnce(RuntimeMode::Controlled, body, seeded(s));
    EXPECT_TRUE(r.ok()) << "seed " << s << ": " << r.failureMessage;
  }
}

TEST(Controlled, SignalBeforeWaitIsLost) {
  // Signal with no waiter wakes nobody; the later waiter deadlocks.  This is
  // the notify/wait ordering bug the suite's notify_lost program documents.
  RunResult r = runOnce(RuntimeMode::Controlled, [](Runtime& rt) {
    Mutex m(rt, "m");
    CondVar cv(rt, "cv");
    {
      LockGuard g(m);
      cv.signal();
    }
    LockGuard g(m);
    cv.wait(m);
  });
  EXPECT_TRUE(r.deadlocked());
}

TEST(Controlled, SemaphoreHandoff) {
  auto body = [](Runtime& rt) {
    Semaphore items(rt, "items", 0);
    SharedVar<int> data(rt, "data", 0);
    Thread producer(rt, "producer", [&] {
      data.write(5);
      items.release();
    });
    Thread consumer(rt, "consumer", [&] {
      items.acquire();
      rt.check(data.read() == 5, "semaphore orders the handoff");
    });
    producer.join();
    consumer.join();
  };
  for (std::uint64_t s = 0; s < 25; ++s) {
    RunResult r = runOnce(RuntimeMode::Controlled, body, seeded(s));
    EXPECT_TRUE(r.ok()) << "seed " << s << ": " << r.failureMessage;
  }
}

TEST(Controlled, SemaphoreMultiplePermits) {
  RunResult r = runOnce(RuntimeMode::Controlled, [](Runtime& rt) {
    Semaphore sem(rt, "sem", 0);
    sem.release(3);
    rt.check(sem.tryAcquire(), "permit 1");
    rt.check(sem.tryAcquire(), "permit 2");
    rt.check(sem.tryAcquire(), "permit 3");
    rt.check(!sem.tryAcquire(), "no permit 4");
  });
  EXPECT_TRUE(r.ok()) << r.failureMessage;
}

TEST(Controlled, BarrierSynchronizesPhases) {
  auto body = [](Runtime& rt) {
    Barrier bar(rt, "bar", 3);
    SharedVar<int> phase1(rt, "phase1", 0);
    std::vector<Thread> ts;
    for (int i = 0; i < 3; ++i) {
      ts.emplace_back(rt, "w" + std::to_string(i), [&] {
        phase1.write(phase1.read() + 0);  // touch before barrier
        bar.arriveAndWait();
        // After the barrier every arrival has happened.
        bar.arriveAndWait();  // reusable (cyclic) barrier, second generation
      });
    }
    for (auto& t : ts) t.join();
  };
  for (std::uint64_t s = 0; s < 15; ++s) {
    RunResult r = runOnce(RuntimeMode::Controlled, body, seeded(s));
    EXPECT_TRUE(r.ok()) << "seed " << s << ": " << to_string(r.status);
  }
}

TEST(Controlled, BarrierEnterExitEventsBalance) {
  EventCollector col;
  runOnce(
      RuntimeMode::Controlled,
      [](Runtime& rt) {
        Barrier bar(rt, "bar", 2);
        Thread t(rt, "t", [&] { bar.arriveAndWait(); });
        bar.arriveAndWait();
        t.join();
      },
      seeded(2), {&col});
  EXPECT_EQ(col.countKind(EventKind::BarrierEnter), 2u);
  EXPECT_EQ(col.countKind(EventKind::BarrierExit), 2u);
}

TEST(Controlled, MissingBarrierPartyDeadlocks) {
  RunResult r = runOnce(RuntimeMode::Controlled, [](Runtime& rt) {
    Barrier bar(rt, "bar", 2);
    bar.arriveAndWait();  // nobody else ever arrives
  });
  EXPECT_TRUE(r.deadlocked());
  ASSERT_FALSE(r.blocked.empty());
  EXPECT_NE(r.blocked[0].waitingFor.find("barrier"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Controlled mode: try-lock, recursion, yields, sleep, limits, failures.
// ---------------------------------------------------------------------------

TEST(Controlled, TryLockReflectsAvailability) {
  RunResult r = runOnce(RuntimeMode::Controlled, [](Runtime& rt) {
    Mutex m(rt, "m");
    rt.check(m.tryLock(), "free mutex acquired");
    Thread t(rt, "t", [&] { rt.check(!m.tryLock(), "held mutex refused"); });
    t.join();
    m.unlock();
  });
  EXPECT_TRUE(r.ok()) << r.failureMessage;
}

TEST(Controlled, RecursiveMutexSupportsNesting) {
  RunResult r = runOnce(RuntimeMode::Controlled, [](Runtime& rt) {
    Mutex m(rt, "m", /*recursive=*/true);
    m.lock();
    m.lock();
    m.unlock();
    Thread t(rt, "t", [&] { rt.check(!m.tryLock(), "still held once"); });
    t.join();
    m.unlock();
    Thread t2(rt, "t2", [&] { rt.check(m.tryLock(), "released"); m.unlock(); });
    t2.join();
  });
  EXPECT_TRUE(r.ok()) << r.failureMessage;
}

TEST(Controlled, NonRecursiveSelfLockDeadlocks) {
  RunResult r = runOnce(RuntimeMode::Controlled, [](Runtime& rt) {
    Mutex m(rt, "m");
    m.lock();
    m.lock();  // self-deadlock
  });
  EXPECT_TRUE(r.deadlocked());
}

TEST(Controlled, UnlockWithoutOwnershipFailsRun) {
  RunResult r = runOnce(RuntimeMode::Controlled, [](Runtime& rt) {
    Mutex m(rt, "m");
    m.unlock();
  });
  EXPECT_EQ(r.status, RunStatus::AssertFailed);
  EXPECT_NE(r.failureMessage.find("not owned"), std::string::npos);
}

TEST(Controlled, SpinLoopHitsStepLimit) {
  RunOptions o;
  o.maxSteps = 500;
  RunResult r = runOnce(
      RuntimeMode::Controlled,
      [](Runtime& rt) {
        SharedVar<int> flag(rt, "flag", 0);
        while (flag.read() == 0) {
        }
      },
      o);
  EXPECT_EQ(r.status, RunStatus::StepLimit);
}

TEST(Controlled, SleepersAdvanceVirtualTime) {
  // A run where everyone sleeps must still terminate promptly (virtual time
  // fast-forwards; no wall-clock sleeping in controlled mode).
  Stopwatch sw;
  RunResult r = runOnce(RuntimeMode::Controlled, [](Runtime& rt) {
    rt.sleepFor(std::chrono::milliseconds(200));
    Thread t(rt, "t", [&] { rt.sleepFor(std::chrono::milliseconds(500)); });
    t.join();
  });
  EXPECT_TRUE(r.ok());
  EXPECT_LT(sw.elapsedSeconds(), 0.5) << "virtual sleep must not block";
}

TEST(Controlled, YieldEmitsEvent) {
  EventCollector col;
  runOnce(
      RuntimeMode::Controlled,
      [](Runtime& rt) { rt.yieldNow(site("test.yield")); }, seeded(0), {&col});
  EXPECT_EQ(col.countKind(EventKind::Yield), 1u);
}

TEST(Controlled, FailAbortsAllThreads) {
  RunResult r = runOnce(RuntimeMode::Controlled, [](Runtime& rt) {
    SharedVar<int> x(rt, "x", 0);
    Thread spinner(rt, "spinner", [&] {
      while (true) x.read();
    });
    rt.fail("boom");
    spinner.join();
  });
  EXPECT_EQ(r.status, RunStatus::AssertFailed);
  EXPECT_EQ(r.failureMessage, "boom");
}

TEST(Controlled, UncaughtExceptionBecomesFailure) {
  RunResult r = runOnce(RuntimeMode::Controlled, [](Runtime& rt) {
    Thread t(rt, "thrower", [] { throw std::runtime_error("kaput"); });
    t.join();
  });
  EXPECT_EQ(r.status, RunStatus::AssertFailed);
  EXPECT_NE(r.failureMessage.find("kaput"), std::string::npos);
}

TEST(Controlled, EventFilterSuppressesDispatch) {
  EventCollector col;
  auto rt = makeRuntime(RuntimeMode::Controlled);
  rt->hooks().add(&col);
  rt->setEventFilter(
      [](const Event& e) { return e.kind != EventKind::VarRead; });
  rt->run(
      [](Runtime& r) {
        SharedVar<int> x(r, "x", 0);
        x.read();
        x.write(1);
      },
      RunOptions{});
  EXPECT_EQ(col.countKind(EventKind::VarRead), 0u);
  EXPECT_EQ(col.countKind(EventKind::VarWrite), 1u);
}

TEST(Controlled, PostNoiseYieldAddsDecisionPoint) {
  // A listener that posts a yield on every write must not deadlock or crash,
  // and yields must appear in the stream.
  class YieldOnWrite final : public Listener {
   public:
    explicit YieldOnWrite(Runtime& rt) : rt_(&rt) {}
    void onEvent(const Event& e) override {
      if (e.kind == EventKind::VarWrite) {
        Runtime::NoiseRequest nr;
        nr.kind = Runtime::NoiseRequest::Kind::Yield;
        nr.amount = 1;
        rt_->postNoise(nr);
      }
    }

   private:
    Runtime* rt_;
  };
  auto rt = makeRuntime(RuntimeMode::Controlled);
  YieldOnWrite noise(*rt);
  EventCollector col;
  rt->hooks().add(&col);
  rt->hooks().add(&noise);
  RunResult r = rt->run(
      [](Runtime& rr) {
        SharedVar<int> x(rr, "x", 0);
        x.write(1);
        x.write(2);
        x.read();
      },
      RunOptions{});
  EXPECT_TRUE(r.ok());
  EXPECT_GE(col.countKind(EventKind::Yield), 2u);
}

TEST(Controlled, SharedArraySlotsAreDistinctObjects) {
  EventCollector col;
  runOnce(
      RuntimeMode::Controlled,
      [](Runtime& rt) {
        SharedArray<int> arr(rt, "arr", 3, 0);
        arr.write(0, 1);
        arr.write(2, 5);
        EXPECT_EQ(arr.read(2), 5);
        EXPECT_EQ(arr.read(0), 1);
        EXPECT_EQ(arr.plainGet(1), 0);
        EXPECT_NE(arr.idOf(0), arr.idOf(2));
      },
      seeded(0), {&col});
  std::set<ObjectId> objs;
  for (const auto& e : col.events()) {
    if (e.kind == EventKind::VarWrite) objs.insert(e.object);
  }
  EXPECT_EQ(objs.size(), 2u);
}

TEST(Controlled, ObjectRegistryNamesStable) {
  auto rt = makeRuntime(RuntimeMode::Controlled);
  rt->run(
      [](Runtime& r) {
        Mutex m(r, "the-lock");
        SharedVar<int> x(r, "the-var");
        EXPECT_EQ(r.objectInfo(m.id()).name, "the-lock");
        EXPECT_EQ(r.objectInfo(m.id()).kind, ObjectKind::Mutex);
        EXPECT_EQ(r.objectInfo(x.id()).name, "the-var");
        EXPECT_EQ(r.objectInfo(x.id()).kind, ObjectKind::Variable);
      },
      RunOptions{});
}

TEST(Runtime, ReusedRuntimeNumbersObjectsLikeAFreshOne) {
  auto body = [](Runtime& r) {
    Mutex m(r, "m");
    SharedVar<int> x(r, "x", 0);
    m.lock();
    x.write(1);
    m.unlock();
  };
  auto objectsOf = [&](Runtime& rt) {
    EventCollector col;
    rt.hooks().add(&col);
    RunResult r = rt.run(body, seeded(0));
    rt.hooks().remove(&col);
    EXPECT_TRUE(r.ok()) << r.failureMessage;
    std::vector<ObjectId> ids;
    for (const Event& e : col.events()) ids.push_back(e.object);
    return ids;
  };
  for (RuntimeMode mode : {RuntimeMode::Controlled, RuntimeMode::Native}) {
    const std::vector<ObjectId> fresh = objectsOf(*makeRuntime(mode));
    auto reused = makeRuntime(mode);
    objectsOf(*reused);
    EXPECT_EQ(objectsOf(*reused), fresh);
    EXPECT_EQ(reused->objectCount(), 2u);
  }
}

// ---------------------------------------------------------------------------
// Controlled mode: the fiber carrier.
// ---------------------------------------------------------------------------

TEST(ControlledCarrier, EveryManagedThreadRunsOnTheCallersOsThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::set<std::thread::id> seen;
  int callbacks = 0;
  RunResult r = runOnce(
      RuntimeMode::Controlled,
      [&](Runtime& rt) {
        seen.insert(std::this_thread::get_id());
        Thread a(rt, "a", [&] {
          seen.insert(std::this_thread::get_id());
          Thread nested(rt, "nested",
                        [&] { seen.insert(std::this_thread::get_id()); });
          nested.join();
        });
        evloop::EventLoop loop(rt, "loop");
        for (int i = 0; i < 3; ++i) {
          loop.post([&] {
            seen.insert(std::this_thread::get_id());
            ++callbacks;
          });
        }
        loop.drain();
        a.join();
      },
      seeded(4));
  ASSERT_TRUE(r.ok()) << r.failureMessage;
  EXPECT_EQ(callbacks, 3);
  EXPECT_EQ(seen, std::set<std::thread::id>{caller});
}

// Touches `kib` KiB of stack, one KiB per frame.
int deepStack(int kib) {
  volatile char frame[1024];
  for (std::size_t i = 0; i < sizeof frame; i += 64) {
    frame[i] = static_cast<char>(kib);
  }
  if (kib == 0) return frame[0];
  const int below = deepStack(kib - 1);
  return below + frame[64];  // read after the call: the frame stays live
}

TEST(ControlledCarrier, ManagedThreadMayUse128KiBOfStack) {
  int result = -1;
  RunResult r = runOnce(RuntimeMode::Controlled, [&](Runtime& rt) {
    Thread t(rt, "deep", [&] {
      rt.yieldNow(site("deep.before"));
      result = deepStack(128);
      rt.yieldNow(site("deep.after"));
    });
    t.join();
  });
  ASSERT_TRUE(r.ok()) << r.failureMessage;
  EXPECT_EQ(result, deepStack(128));
}

// A clean run whose every thread spawns a child and joins it.
void nestedCleanBody(Runtime& rt) {
  SharedVar<int> x(rt, "x", 0);
  Thread a(rt, "a", [&] {
    Thread b(rt, "b", [&] { x.write(x.read() + 1); });
    x.write(x.read() + 1);
    b.join();
  });
  x.write(x.read() + 1);
  a.join();
}

TEST(ControlledCarrier, AbortedRunsLeaveTheRuntimeClean) {
  // Reference: the clean run on a fresh runtime.
  auto fresh = makeRuntime(RuntimeMode::Controlled);
  RunResult ref = fresh->run(nestedCleanBody, seeded(9));
  ASSERT_TRUE(ref.ok()) << ref.failureMessage;

  auto rt = makeRuntime(RuntimeMode::Controlled);
  for (int i = 0; i < 50; ++i) {
    const bool deadlock = i % 2 == 0;
    RunResult bad = rt->run(
        [deadlock](Runtime& r) {
          Semaphore never(r, "never", 0);
          SharedVar<int> spin(r, "spin", 0);
          Thread outer(r, "outer", [&] {
            Thread inner(r, "inner", [&] {
              if (deadlock) never.acquire();
              while (true) spin.read();  // unwinds on the abort
            });
            if (!deadlock) r.fail("outer gave up");
            inner.join();
          });
          outer.join();
        },
        seeded(static_cast<std::uint64_t>(i)));
    ASSERT_EQ(bad.status,
              deadlock ? RunStatus::Deadlock : RunStatus::AssertFailed)
        << "run " << i;
    RunResult next = rt->run(nestedCleanBody, seeded(9));
    ASSERT_TRUE(next.ok()) << "after run " << i << ": " << next.failureMessage;
    EXPECT_EQ(next.steps, ref.steps) << "after run " << i;
    EXPECT_EQ(next.events, ref.events) << "after run " << i;
  }
}

TEST(ControlledCarrier, ReusedRuntimeKeepsItsStacks) {
  // The stacks outlive the run: on one runtime, the same schedule runs
  // each managed thread on the same stack every time.
  ControlledRuntime rt(std::make_unique<RoundRobinPolicy>());
  auto localsOf = [&rt] {
    std::vector<std::uintptr_t> at(4, 0);
    auto record = [&at](std::size_t k) {
      volatile int local = 0;
      at[k] = reinterpret_cast<std::uintptr_t>(&local);
    };
    // Threads finish in another order than they start, and d starts on a
    // stack a finished thread left.
    RunResult r = rt.run(
        [&](Runtime& rr) {
          record(0);
          Thread a(rr, "a", [&] { record(1); });
          Thread b(rr, "b", [&] {
            for (int i = 0; i < 4; ++i) rr.yieldNow(site("b.yield"));
            record(2);
          });
          a.join();
          Thread d(rr, "d", [&] { record(3); });
          d.join();
          b.join();
        },
        seeded(0));
    EXPECT_TRUE(r.ok()) << r.failureMessage;
    return at;
  };
  const std::vector<std::uintptr_t> first = localsOf();
  for (int run = 1; run < 4; ++run) {
    EXPECT_EQ(localsOf(), first) << "run " << run;
  }
}

// 1/3 in SSE arithmetic, so it rounds by MXCSR (fegetround reads the x87
// control word).
double oneThird() {
  volatile double one = 1.0, three = 3.0;
  return one / three;
}

TEST(ControlledCarrier, FloatingPointControlStaysWithItsThread) {
  // The rounding mode is part of a managed thread's context: a thread that
  // changes it keeps it across switches, and no other thread sees it.
  const double nearestThird = oneThird();
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    int upward = 0, nearest = 0, wrong = 0;
    RunResult r = runOnce(
        RuntimeMode::Controlled,
        [&](Runtime& rt) {
          // Both threads have started before the mode changes.
          Barrier started(rt, "started", 2);
          Thread up(rt, "up", [&] {
            started.arriveAndWait();
            std::fesetround(FE_UPWARD);
            for (int i = 0; i < 4; ++i) {
              rt.yieldNow(site("up.yield"));
              const bool ok = std::fegetround() == FE_UPWARD &&
                              oneThird() > nearestThird;
              ++(ok ? upward : wrong);
            }
          });
          Thread near(rt, "near", [&] {
            started.arriveAndWait();
            for (int i = 0; i < 4; ++i) {
              rt.yieldNow(site("near.yield"));
              const bool ok = std::fegetround() == FE_TONEAREST &&
                              oneThird() == nearestThird;
              ++(ok ? nearest : wrong);
            }
          });
          up.join();
          near.join();
          ++(std::fegetround() == FE_TONEAREST ? nearest : wrong);
        },
        seeded(seed));
    ASSERT_TRUE(r.ok()) << r.failureMessage;
    EXPECT_EQ(upward, 4) << "seed " << seed;
    EXPECT_EQ(nearest, 5) << "seed " << seed;
    EXPECT_EQ(wrong, 0) << "seed " << seed;
  }
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);  // run()'s caller keeps its own
}

#if defined(__x86_64__)
extern "C" void mtt_fiber_entry();  // the bottom frame of every fiber
#endif

TEST(ControlledCarrier, BacktraceFromAManagedThreadEndsAtItsEntry) {
  struct Walk {
    int frames = 0;
    void* lastIp = nullptr;
  } walk;
  _Unwind_Reason_Code end = _URC_NO_REASON;
  RunResult r = runOnce(RuntimeMode::Controlled, [&](Runtime& rt) {
    Thread t(rt, "t", [&] {
      rt.yieldNow(site("t.yield"));  // resumed by a switch
      end = _Unwind_Backtrace(
          [](_Unwind_Context* ctx, void* arg) {
            // libgcc ends the walk with one frame of IP 0: the undefined
            // return address of the bottom frame.
            auto* w = static_cast<Walk*>(arg);
            if (const _Unwind_Ptr ip = _Unwind_GetIP(ctx); ip != 0) {
              w->lastIp = reinterpret_cast<void*>(ip);
            }
            return ++w->frames < 256 ? _URC_NO_REASON : _URC_NORMAL_STOP;
          },
          &walk);
    });
    t.join();
  });
  ASSERT_TRUE(r.ok()) << r.failureMessage;
  EXPECT_EQ(end, _URC_END_OF_STACK);
  EXPECT_GT(walk.frames, 2);
  EXPECT_LT(walk.frames, 64);
#if defined(__x86_64__)
  EXPECT_EQ(_Unwind_FindEnclosingFunction(walk.lastIp),
            reinterpret_cast<void*>(&mtt_fiber_entry));
#endif
}

TEST(ControlledCarrier, NonStandardExceptionBecomesFailure) {
  RunResult r = runOnce(RuntimeMode::Controlled, [](Runtime& rt) {
    Thread t(rt, "thrower", [] { throw 42; });
    t.join();
  });
  EXPECT_EQ(r.status, RunStatus::AssertFailed);
  EXPECT_EQ(r.failureMessage, "uncaught exception in thrower");
}

TEST(ControlledCarrier, CallsFromAForeignOsThreadThrowLogicError) {
  bool threw = false;
  RunResult r = runOnce(RuntimeMode::Controlled, [&](Runtime& rt) {
    Mutex m(rt, "m");
    std::thread foreign([&] {
      try {
        m.lock();
      } catch (const std::logic_error&) {
        threw = true;
      }
    });
    foreign.join();
  });
  ASSERT_TRUE(r.ok()) << r.failureMessage;
  EXPECT_TRUE(threw);
}

// ---------------------------------------------------------------------------
// Native mode.
// ---------------------------------------------------------------------------

TEST(Native, BasicRunCompletes) {
  EventCollector col;
  RunResult r = runOnce(
      RuntimeMode::Native,
      [](Runtime& rt) {
        SharedVar<int> x(rt, "x", 0);
        x.write(3);
        EXPECT_EQ(x.read(), 3);
      },
      RunOptions{}, {&col});
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(col.countKind(EventKind::VarWrite), 1u);
  EXPECT_EQ(col.info().mode, RuntimeMode::Native);
}

TEST(Native, LockedCounterIsCorrect) {
  RunResult r = runOnce(RuntimeMode::Native, [](Runtime& rt) {
    SharedVar<int> counter(rt, "counter", 0);
    Mutex m(rt, "m");
    auto inc = [&] {
      for (int i = 0; i < 200; ++i) {
        LockGuard g(m);
        counter.write(counter.read() + 1);
      }
    };
    Thread a(rt, "a", inc), b(rt, "b", inc);
    a.join();
    b.join();
    rt.check(counter.read() == 400, "no lost updates under lock");
  });
  EXPECT_TRUE(r.ok()) << r.failureMessage;
}

TEST(Native, GuaranteedDeadlockHitsWatchdog) {
  // Two semaphores force both threads to hold one lock before either tries
  // the other's: a certain deadlock; the watchdog must end the run.
  RunOptions o;
  o.blockTimeout = std::chrono::milliseconds(150);
  RunResult r = runOnce(
      RuntimeMode::Native,
      [](Runtime& rt) {
        Mutex a(rt, "A"), b(rt, "B");
        Semaphore sa(rt, "sa", 0), sb(rt, "sb", 0);
        Thread t1(rt, "t1", [&] {
          a.lock();
          sa.release();
          sb.acquire();
          b.lock();  // deadlock
          b.unlock();
          a.unlock();
        });
        Thread t2(rt, "t2", [&] {
          b.lock();
          sb.release();
          sa.acquire();
          a.lock();  // deadlock
          a.unlock();
          b.unlock();
        });
        t1.join();
        t2.join();
      },
      o);
  EXPECT_TRUE(r.deadlocked());
  ASSERT_FALSE(r.blocked.empty());
  EXPECT_NE(r.blocked[0].waitingFor.find("mutex"), std::string::npos);
}

TEST(Native, LostWakeupHitsWatchdog) {
  RunOptions o;
  o.blockTimeout = std::chrono::milliseconds(100);
  RunResult r = runOnce(
      RuntimeMode::Native,
      [](Runtime& rt) {
        Mutex m(rt, "m");
        CondVar cv(rt, "cv");
        LockGuard g(m);
        cv.wait(m);  // nobody will ever signal
      },
      o);
  EXPECT_TRUE(r.deadlocked());
  EXPECT_NE(r.blocked[0].waitingFor.find("condvar"), std::string::npos);
}

TEST(Native, ProducerConsumerWorks) {
  for (int i = 0; i < 5; ++i) {
    RunResult r = runOnce(RuntimeMode::Native, producerConsumerBody);
    EXPECT_TRUE(r.ok()) << r.failureMessage;
  }
}

TEST(Native, BarrierWorks) {
  RunResult r = runOnce(RuntimeMode::Native, [](Runtime& rt) {
    Barrier bar(rt, "bar", 4);
    SharedVar<int> after(rt, "after", 0);
    Mutex m(rt, "m");
    std::vector<Thread> ts;
    for (int i = 0; i < 4; ++i) {
      ts.emplace_back(rt, "w" + std::to_string(i), [&] {
        bar.arriveAndWait();
        LockGuard g(m);
        after.write(after.read() + 1);
      });
    }
    for (auto& t : ts) t.join();
    rt.check(after.read() == 4, "all crossed the barrier");
  });
  EXPECT_TRUE(r.ok()) << r.failureMessage;
}

TEST(Native, FailFromWorkerAbortsRun) {
  RunResult r = runOnce(RuntimeMode::Native, [](Runtime& rt) {
    Thread t(rt, "t", [&] { rt.fail("native boom"); });
    t.join();
  });
  EXPECT_EQ(r.status, RunStatus::AssertFailed);
  EXPECT_EQ(r.failureMessage, "native boom");
}

TEST(Native, RecursiveMutex) {
  RunResult r = runOnce(RuntimeMode::Native, [](Runtime& rt) {
    Mutex m(rt, "m", /*recursive=*/true);
    m.lock();
    m.lock();
    rt.check(m.tryLock(), "recursive trylock while owner");
    m.unlock();
    m.unlock();
    m.unlock();
  });
  EXPECT_TRUE(r.ok()) << r.failureMessage;
}

TEST(Native, WatchdogKeepsWallClockBounded) {
  RunOptions o;
  o.blockTimeout = std::chrono::milliseconds(100);
  Stopwatch sw;
  runOnce(
      RuntimeMode::Native,
      [](Runtime& rt) {
        Mutex m(rt, "m");
        m.lock();
        m.lock();  // self-deadlock, non-recursive
      },
      o);
  EXPECT_LT(sw.elapsedSeconds(), 2.0);
}

// ---------------------------------------------------------------------------
// Policies in isolation.
// ---------------------------------------------------------------------------

TEST(Policy, RoundRobinContinuesCurrent) {
  RoundRobinPolicy p;
  ThreadId en[] = {1, 2, 3};
  PickContext ctx;
  ctx.enabled = en;
  ctx.current = 2;
  EXPECT_EQ(p.pick(ctx), 2u);
  ctx.currentYielding = true;
  EXPECT_EQ(p.pick(ctx), 3u);
  ctx.current = 3;
  EXPECT_EQ(p.pick(ctx), 1u);  // wraps
}

TEST(Policy, RoundRobinSkipsDisabledCurrent) {
  RoundRobinPolicy p;
  ThreadId en[] = {1, 3};
  PickContext ctx;
  ctx.enabled = en;
  ctx.current = 2;
  EXPECT_EQ(p.pick(ctx), 3u);
}

TEST(Policy, RandomPicksOnlyEnabled) {
  RandomPolicy p;
  p.onRunStart(99);
  ThreadId en[] = {2, 5, 9};
  PickContext ctx;
  ctx.enabled = en;
  for (int i = 0; i < 200; ++i) {
    ThreadId t = p.pick(ctx);
    EXPECT_TRUE(t == 2 || t == 5 || t == 9);
  }
}

TEST(Policy, RecordingCapturesDecisions) {
  auto rec = RecordingPolicy(std::make_unique<RoundRobinPolicy>());
  rec.onRunStart(0);
  ThreadId en[] = {1, 2};
  PickContext ctx;
  ctx.enabled = en;
  ctx.current = 1;
  rec.pick(ctx);
  ctx.currentYielding = true;
  rec.pick(ctx);
  EXPECT_EQ(rec.schedule().size(), 2u);
  EXPECT_EQ(rec.schedule().decisions[0], Decision::thread(1));
  EXPECT_EQ(rec.schedule().decisions[1], Decision::thread(2));
}

TEST(Policy, ReplayFollowsThenDiverges) {
  Schedule s = Schedule::fromThreads({2, 1, 7});
  ReplayPolicy p(s);
  p.onRunStart(0);
  ThreadId en[] = {1, 2};
  PickContext ctx;
  ctx.enabled = en;
  EXPECT_EQ(p.pick(ctx), 2u);
  EXPECT_EQ(p.pick(ctx), 1u);
  EXPECT_FALSE(p.diverged());
  ctx.step = 2;
  ThreadId t = p.pick(ctx);  // wants 7, not enabled → fallback
  EXPECT_TRUE(t == 1 || t == 2);
  EXPECT_TRUE(p.diverged());
  EXPECT_EQ(p.divergenceStep(), 2u);
}

// ---------------------------------------------------------------------------
// Postmortem flight recorder: arm/claim/dump lifecycle (no signals; the
// signal paths are exercised end-to-end by the farm postmortem tests).
// ---------------------------------------------------------------------------

TEST(FlightRecorder, DumpExportsPartialRecordingAsScenario) {
  std::string path = ::testing::TempDir() + "fr_unit.scenario";
  std::remove(path.c_str());
  fr::arm(path.c_str());
  ASSERT_TRUE(fr::armed());

  fr::RunMeta meta;
  meta.program = "fr_test";
  meta.seed = 99;
  meta.policy = "random";
  meta.noise = "none";
  fr::beginRun(meta);
  int fake = 0;  // any stable address works as the runtime key
  ASSERT_TRUE(fr::claim(&fake));
  for (int i = 0; i < 5; ++i) {
    fr::recordDecision(&fake, static_cast<ThreadId>(1 + (i % 2)));
  }
  fr::recordEvent(&fake, EventKind::MutexLock, 2, 7);
  fr::lockAcquired(&fake, 7, 2);
  EXPECT_EQ(fr::dumpNow(0), 0);

  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string dump = ss.str();
  EXPECT_NE(dump.find("MTTSCHED 2"), std::string::npos);
  EXPECT_NE(dump.find("program fr_test"), std::string::npos);
  EXPECT_NE(dump.find("seed 99"), std::string::npos);
  EXPECT_NE(dump.find("decisions 5"), std::string::npos);
  EXPECT_NE(dump.find("\nend\n"), std::string::npos);
  EXPECT_NE(dump.find("postmortem signal 0"), std::string::npos);
  EXPECT_NE(dump.find("heldlock 7 2"), std::string::npos);
  EXPECT_NE(dump.find("event MutexLock 2 7"), std::string::npos);
  EXPECT_NE(dump.find("endpostmortem"), std::string::npos);

  // A released lock leaves the held set; a finished run dumps nothing.
  fr::lockReleased(&fake, 7);
  fr::release(&fake);
  fr::endRun();
  EXPECT_EQ(fr::dumpNow(0), -1);

  // The slot is single-occupancy: a second runtime cannot claim it while
  // the first holds it.
  fr::beginRun(meta);
  ASSERT_TRUE(fr::claim(&fake));
  int other = 0;
  EXPECT_FALSE(fr::claim(&other));
  fr::release(&fake);
  fr::endRun();

  fr::disarm();
  EXPECT_FALSE(fr::armed());
  std::remove(path.c_str());
}

// Recurses `depth` frames of 4 KiB each.
int overflowStack(int depth) {
  volatile char frame[4096];
  frame[0] = static_cast<char>(depth);
  if (depth == 0) return frame[0];
  const int below = overflowStack(depth - 1);
  return below + frame[0];
}

TEST(FlightRecorder, GuardPageOverflowStillDumpsThePostmortem) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer runtime owns SIGSEGV in this build";
#else
  const std::string path = ::testing::TempDir() + "fr_overflow.scenario";
  std::remove(path.c_str());
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // The forked-worker setup: armed recorder, crash handlers, one run
    // whose managed thread runs off the end of its fiber stack.
    fr::arm(path.c_str());
    fr::installCrashHandlers();
    fr::RunMeta meta;
    meta.program = "overflow";
    meta.policy = "random";
    meta.noise = "none";
    fr::beginRun(meta);
    ControlledRuntime rt;
    rt.run(
        [](Runtime& r) {
          Thread t(r, "deep", [] { overflowStack(1024); });  // 4 MiB
          t.join();
        },
        RunOptions{});
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "status " << status;
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);
  std::ifstream in(path);
  std::ostringstream dump;
  dump << in.rdbuf();
  EXPECT_NE(dump.str().find("program overflow"), std::string::npos);
  EXPECT_NE(dump.str().find("postmortem signal " + std::to_string(SIGSEGV)),
            std::string::npos)
      << dump.str();
  std::remove(path.c_str());
#endif
}

}  // namespace
}  // namespace mtt::rt
