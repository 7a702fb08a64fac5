// Tests for mtt::evloop — the instrumented event-loop runtime.
//
// Covers: task execution and drain semantics on both runtimes,
// run-to-completion atomicity with one scheduler slot, timers, posting from
// inside callbacks, the per-task event inventory (TaskPost/QueuePut/
// QueueTake/TaskBegin/TaskEnd/TimerFire), per-seed determinism, exact
// schedule replay of a failing evloop program, the drain-from-callback
// misuse guard, and the suite family's manifest/control contract.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "evloop/event_loop.hpp"
#include "replay/replay.hpp"
#include "rt/harness.hpp"
#include "rt/primitives.hpp"
#include "suite/program.hpp"
#include "test_util.hpp"

namespace mtt::evloop {
namespace {

using rt::Runtime;
using rt::SharedVar;
using testutil::EventCollector;

// --- basic execution ---------------------------------------------------------

void postAndDrain(Runtime& rt, int tasks, int* executed) {
  EventLoop loop(rt, "loop");
  for (int i = 0; i < tasks; ++i) {
    // With one scheduler slot callbacks never overlap, so a plain counter
    // is safe by construction.
    loop.post([executed] { ++*executed; });
  }
  loop.drain();
  if (loop.stats().executed != static_cast<std::uint64_t>(tasks)) {
    rt.fail("stats.executed mismatch");
  }
}

TEST(EventLoopBasics, ExecutesEveryTaskControlled) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    int executed = 0;
    rt::RunOptions o;
    o.seed = seed;
    rt::RunResult r = rt::runOnce(
        RuntimeMode::Controlled,
        [&](Runtime& rt) { postAndDrain(rt, 12, &executed); }, o);
    ASSERT_TRUE(r.ok()) << r.failureMessage;
    EXPECT_EQ(executed, 12);
  }
}

TEST(EventLoopBasics, ExecutesEveryTaskNative) {
  int executed = 0;
  rt::RunResult r = rt::runOnce(
      RuntimeMode::Native,
      [&](Runtime& rt) { postAndDrain(rt, 12, &executed); });
  ASSERT_TRUE(r.ok()) << r.failureMessage;
  EXPECT_EQ(executed, 12);
}

// --- run-to-completion atomicity ----------------------------------------------

/// Each callback bumps an overlap counter, performs instrumented work (so
/// the scheduler gets chances to interleave), and checks it was alone.
void atomicityBody(Runtime& rt, int* maxOverlap) {
  SharedVar<int> scratch(rt, "scratch", 0);
  std::atomic<int> inside{0};
  EventLoop loop(rt, "loop");
  for (int i = 0; i < 8; ++i) {
    loop.post([&] {
      int now = inside.fetch_add(1) + 1;
      if (now > *maxOverlap) *maxOverlap = now;
      scratch.write(scratch.read() + 1);  // schedule points inside the task
      inside.fetch_sub(1);
    });
  }
  loop.drain();
}

TEST(EventLoopAtomicity, OneSlotNeverOverlapsControlled) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    int maxOverlap = 0;
    rt::RunOptions o;
    o.seed = seed;
    rt::RunResult r = rt::runOnce(
        RuntimeMode::Controlled,
        [&](Runtime& rt) { atomicityBody(rt, &maxOverlap); }, o);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(maxOverlap, 1) << "callbacks overlapped at seed " << seed;
  }
}

TEST(EventLoopAtomicity, OneSlotNeverOverlapsNative) {
  int maxOverlap = 0;
  rt::RunResult r = rt::runOnce(
      RuntimeMode::Native,
      [&](Runtime& rt) { atomicityBody(rt, &maxOverlap); });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(maxOverlap, 1);
}

TEST(EventLoopAtomicity, TwoSlotsStillExecuteEverything) {
  int executed = 0;
  rt::RunResult r = rt::runOnce(RuntimeMode::Controlled, [&](Runtime& rt) {
    EventLoop loop(rt, "loop", 2);
    for (int i = 0; i < 10; ++i) {
      loop.post([&rt, &executed] {
        // Touch the runtime so slots actually interleave.
        rt.yieldNow(site("evt.twoslot.yield"));
        ++executed;  // benign: gtest only reads it after the run
      });
    }
    loop.drain();
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(executed, 10);
}

// --- timers, nesting, misuse ---------------------------------------------------

TEST(EventLoopTimers, DelayedTasksFireAndAreCounted) {
  rt::RunResult r = rt::runOnce(RuntimeMode::Controlled, [](Runtime& rt) {
    EventLoop loop(rt, "loop");
    SharedVar<int> order(rt, "order", 0);
    loop.postDelayed([&] { order.write(order.read() + 1); }, 5);
    loop.postDelayed([&] { order.write(order.read() + 1); }, 9);
    loop.post([&] { order.write(order.read() + 1); });
    loop.drain();
    if (loop.stats().timersFired != 2) rt.fail("timersFired != 2");
    if (loop.stats().executed != 3) rt.fail("executed != 3");
  });
  EXPECT_TRUE(r.ok()) << r.failureMessage;
}

TEST(EventLoopNesting, CallbacksMayPostMoreWork) {
  // A chain: each callback posts the next; drain must wait for the whole
  // cascade, including work posted while draining.
  int reached = 0;
  rt::RunResult r = rt::runOnce(RuntimeMode::Controlled, [&](Runtime& rt) {
    EventLoop loop(rt, "loop");
    std::function<void(int)> step = [&](int depth) {
      ++reached;
      if (depth < 10) loop.post([&step, depth] { step(depth + 1); });
    };
    loop.post([&step] { step(1); });
    loop.drain();
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(reached, 10);
}

TEST(EventLoopMisuse, DrainFromInsideACallbackFailsTheRun) {
  rt::RunResult r = rt::runOnce(RuntimeMode::Controlled, [](Runtime& rt) {
    EventLoop loop(rt, "loop");
    loop.post([&loop] { loop.drain(); });  // would wait on its own slot
    loop.drain();
  });
  EXPECT_EQ(r.status, rt::RunStatus::AssertFailed);
  EXPECT_NE(r.failureMessage.find("drain"), std::string::npos)
      << r.failureMessage;
}

TEST(EventLoopMisuse, DrainWhileACallbackIsParkedMidBodyIsFine) {
  // Every managed thread shares the caller's OS thread under the controlled
  // runtime, so "inside a callback" must be tracked per managed thread:
  // main drains while a callback is parked between two of its operations.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    rt::RunOptions o;
    o.seed = seed;
    rt::RunResult r = rt::runOnce(
        RuntimeMode::Controlled,
        [](Runtime& rt) {
          EventLoop loop(rt, "loop");
          SharedVar<int> entered(rt, "entered", 0);
          SharedVar<int> work(rt, "work", 0);
          loop.post([&] {
            entered.write(1);
            for (int i = 0; i < 3; ++i) work.write(work.read() + 1);
          });
          while (entered.read() == 0) rt.yieldNow(site("wait.entered"));
          loop.drain();
          if (work.plainGet() != 3) rt.fail("drain returned early");
        },
        o);
    ASSERT_TRUE(r.ok()) << "seed " << seed << ": " << r.failureMessage;
  }
}

// --- event inventory ------------------------------------------------------------

TEST(EventLoopEvents, PerTaskInventoryIsComplete) {
  EventCollector collector;
  ObjectId loopId = kNoObject;
  rt::RunResult r = rt::runOnce(
      RuntimeMode::Controlled,
      [&](Runtime& rt) {
        EventLoop loop(rt, "loop");
        loopId = loop.id();
        loop.post([] {});
        loop.post([] {});
        loop.postDelayed([] {}, 4);
        loop.drain();
      },
      {}, {&collector});
  ASSERT_TRUE(r.ok());

  EXPECT_EQ(collector.countKind(EventKind::TaskPost), 3u);
  EXPECT_EQ(collector.countKind(EventKind::QueuePut), 3u);
  EXPECT_EQ(collector.countKind(EventKind::QueueTake), 3u);
  EXPECT_EQ(collector.countKind(EventKind::TaskBegin), 3u);
  EXPECT_EQ(collector.countKind(EventKind::TaskEnd), 3u);
  EXPECT_EQ(collector.countKind(EventKind::TimerFire), 1u);

  // Every evloop event names the loop object and a valid task id (ids are
  // 1-based), and each task's lifecycle is ordered put -> take -> begin ->
  // end.
  std::set<std::uint32_t> taskIds;
  std::vector<EventKind> lifecycle[3];
  for (const Event& e : collector.events()) {
    if (abstract_type_of(e.kind) != AbstractType::Task) continue;
    EXPECT_EQ(e.object, loopId) << describe(e);
    ASSERT_GE(e.arg, 1u) << describe(e);
    ASSERT_LE(e.arg, 3u) << describe(e);
    taskIds.insert(e.arg);
    if (e.kind != EventKind::TaskPost) {
      lifecycle[e.arg - 1].push_back(e.kind);
    }
  }
  EXPECT_EQ(taskIds.size(), 3u);
  for (std::uint32_t id = 0; id < 3; ++id) {
    const auto& seq = lifecycle[id];
    std::vector<EventKind> want =
        seq.size() == 5
            ? std::vector<EventKind>{EventKind::TimerFire,
                                     EventKind::QueuePut,
                                     EventKind::QueueTake,
                                     EventKind::TaskBegin, EventKind::TaskEnd}
            : std::vector<EventKind>{EventKind::QueuePut,
                                     EventKind::QueueTake,
                                     EventKind::TaskBegin, EventKind::TaskEnd};
    EXPECT_EQ(seq, want) << "task " << id;
  }
}

// --- determinism & replay -------------------------------------------------------

void smallWorkload(Runtime& rt) {
  EventLoop loop(rt, "loop");
  SharedVar<int> x(rt, "x", 0);
  for (int i = 0; i < 4; ++i) {
    loop.post([&] { x.write(x.read() + 1); });
  }
  loop.postDelayed([&] { x.write(x.read() * 2); }, 3);
  loop.drain();
}

TEST(EventLoopDeterminism, SameSeedSameEventSequence) {
  for (std::uint64_t seed : {0u, 3u, 11u}) {
    EventCollector a, b;
    rt::RunOptions o;
    o.seed = seed;
    ASSERT_TRUE(
        rt::runOnce(RuntimeMode::Controlled, smallWorkload, o, {&a}).ok());
    ASSERT_TRUE(
        rt::runOnce(RuntimeMode::Controlled, smallWorkload, o, {&b}).ok());
    EXPECT_EQ(a.signature(), b.signature()) << "seed " << seed;
  }
}

TEST(EventLoopReplay, RecordedFailingScheduleReplaysExactly) {
  // Hunt a failing schedule for the conn-pool double release, then replay
  // the decision vector: the failure and the event stream must reproduce.
  auto program = suite::makeProgram("evloop_conn_pool");
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    program->reset();
    rt::RecordingPolicy rec(std::make_unique<rt::RandomPolicy>());
    rt::ControlledRuntime rt1(std::make_unique<rt::PolicyRef>(rec));
    EventCollector ev1;
    rt1.hooks().add(&ev1);
    rt::RunOptions o = program->defaultRunOptions();
    o.seed = seed;
    o.programName = program->name();
    rt::RunResult r1 =
        rt1.run([&](Runtime& rr) { program->body(rr); }, o);
    if (program->evaluate(r1) != suite::Verdict::BugManifested) continue;

    program->reset();
    rt::ReplayPolicy rep(rec.schedule());
    rt::ControlledRuntime rt2(std::make_unique<rt::PolicyRef>(rep));
    EventCollector ev2;
    rt2.hooks().add(&ev2);
    rt::RunResult r2 =
        rt2.run([&](Runtime& rr) { program->body(rr); }, o);
    EXPECT_EQ(program->evaluate(r2), suite::Verdict::BugManifested);
    EXPECT_EQ(r2.status, r1.status);
    EXPECT_FALSE(rep.diverged());
    EXPECT_EQ(ev1.signature(), ev2.signature());
    return;
  }
  FAIL() << "evloop_conn_pool never manifested in 64 seeds";
}

// --- the suite family ------------------------------------------------------------

TEST(EvloopSuite, BuggyProgramsManifestAndControlsStayClean) {
  for (const auto& name : suite::allProgramNames("evloop")) {
    auto p = suite::makeProgram(name);
    bool isFixed = p->isControl();
    bool manifested = false;
    for (std::uint64_t seed = 0; seed < (isFixed ? 25u : 60u); ++seed) {
      p->reset();
      rt::ControlledRuntime rt;
      rt::RunOptions o = p->defaultRunOptions();
      o.seed = seed;
      o.programName = name;
      rt::RunResult r = rt.run([&](Runtime& rr) { p->body(rr); }, o);
      if (p->evaluate(r) == suite::Verdict::BugManifested) {
        manifested = true;
        ASSERT_FALSE(isFixed)
            << name << " is a control but manifested at seed " << seed
            << " (" << to_string(r.status) << " " << r.failureMessage << ")";
        break;
      }
    }
    EXPECT_EQ(manifested, !isFixed) << name;
  }
}

}  // namespace
}  // namespace mtt::evloop
