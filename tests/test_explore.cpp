// Tests for systematic state-space exploration over the controlled runtime.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "explore/explorer.hpp"
#include "model/checker.hpp"
#include "rt/primitives.hpp"
#include "suite/program.hpp"

namespace mtt::explore {
namespace {

using rt::LockGuard;
using rt::Mutex;
using rt::Runtime;
using rt::SharedVar;
using rt::Thread;

void racyBody(Runtime& rt) {
  SharedVar<int> c(rt, "c", 0);
  auto inc = [&] {
    int v = c.read();
    c.write(v + 1);
  };
  Thread a(rt, "a", inc), b(rt, "b", inc);
  a.join();
  b.join();
  if (c.read() != 2) rt.fail("lost update");
}

void cleanBody(Runtime& rt) {
  SharedVar<int> c(rt, "c", 0);
  Mutex m(rt, "m");
  auto inc = [&] {
    LockGuard g(m);
    c.write(c.read() + 1);
  };
  Thread a(rt, "a", inc), b(rt, "b", inc);
  a.join();
  b.join();
  if (c.read() != 2) rt.fail("lost update");
}

void inversionBody(Runtime& rt) {
  Mutex a(rt, "A"), b(rt, "B");
  Thread t1(rt, "t1", [&] {
    LockGuard ga(a);
    LockGuard gb(b);
  });
  Thread t2(rt, "t2", [&] {
    LockGuard gb(b);
    LockGuard ga(a);
  });
  t1.join();
  t2.join();
}

TEST(Explorer, FindsLostUpdate) {
  Explorer ex;
  ExploreResult r = ex.explore(racyBody);
  EXPECT_TRUE(r.bugFound);
  EXPECT_GT(r.firstBugSchedule, 0u);
  EXPECT_EQ(r.bugResult.status, rt::RunStatus::AssertFailed);
  EXPECT_FALSE(r.counterexample.empty());
}

TEST(Explorer, ExhaustsCleanProgram) {
  ExploreOptions o;
  o.maxSchedules = 200'000;
  Explorer ex(o);
  ExploreResult r = ex.explore(cleanBody);
  EXPECT_FALSE(r.bugFound);
  EXPECT_TRUE(r.exhausted);
  EXPECT_GT(r.schedules, 1u);
}

TEST(Explorer, FindsDeadlock) {
  Explorer ex;
  ExploreResult r = ex.explore(inversionBody);
  EXPECT_TRUE(r.bugFound);
  EXPECT_EQ(r.bugResult.status, rt::RunStatus::Deadlock);
  EXPECT_GT(r.deadlocks, 0u);
}

TEST(Explorer, ScenarioReplaysToSameBug) {
  // "Whenever an error is detected [...] a scenario leading to the error
  // state is saved.  Scenarios can be executed and replayed."
  Explorer ex;
  ExploreResult r = ex.explore(racyBody);
  ASSERT_TRUE(r.bugFound);
  rt::ReplayPolicy rep(r.counterexample);
  rt::ControlledRuntime replayRt(std::make_unique<rt::PolicyRef>(rep));
  rt::RunResult rr = replayRt.run(racyBody, rt::RunOptions{});
  EXPECT_EQ(rr.status, rt::RunStatus::AssertFailed);
  EXPECT_FALSE(rep.diverged());
}

TEST(Explorer, PreemptionBoundFindsBugCheaper) {
  ExploreOptions unbounded, bounded;
  bounded.preemptionBound = 1;
  ExploreResult u = Explorer(unbounded).explore(racyBody);
  ExploreResult b = Explorer(bounded).explore(racyBody);
  ASSERT_TRUE(u.bugFound);
  ASSERT_TRUE(b.bugFound) << "one preemption suffices for a lost update";
  EXPECT_LE(b.firstBugSchedule, u.firstBugSchedule);
}

TEST(Explorer, PreemptionBoundZeroIsRoundRobinOnly) {
  // Bound 0 means no preemptive switches: the racy increment can never be
  // torn, so the bug is not found and the search space is tiny.
  ExploreOptions o;
  o.preemptionBound = 0;
  ExploreResult r = Explorer(o).explore(racyBody);
  EXPECT_FALSE(r.bugFound);
  EXPECT_TRUE(r.exhausted);
  EXPECT_LE(r.schedules, 8u);
}

TEST(Explorer, BoundedSpaceIsSmaller) {
  ExploreOptions b1, b2;
  b1.preemptionBound = 1;
  b1.stopAtFirstBug = false;
  b1.maxSchedules = 1'000'000;
  b2.preemptionBound = 2;
  b2.stopAtFirstBug = false;
  b2.maxSchedules = 1'000'000;
  ExploreResult r1 = Explorer(b1).explore(cleanBody);
  ExploreResult r2 = Explorer(b2).explore(cleanBody);
  EXPECT_TRUE(r1.exhausted);
  EXPECT_TRUE(r2.exhausted);
  EXPECT_LT(r1.schedules, r2.schedules);
}

TEST(Explorer, RandomWalkModeFindsBug) {
  ExploreOptions o;
  o.randomWalk = true;
  o.maxSchedules = 500;
  o.seed = 11;
  ExploreResult r = Explorer(o).explore(racyBody);
  EXPECT_TRUE(r.bugFound);
  // Its counterexample replays too.
  rt::ReplayPolicy rep(r.counterexample);
  rt::ControlledRuntime replayRt(std::make_unique<rt::PolicyRef>(rep));
  rt::RunResult rr = replayRt.run(racyBody, rt::RunOptions{});
  EXPECT_EQ(rr.status, rt::RunStatus::AssertFailed);
}

TEST(Explorer, CountAllBugsWhenNotStopping) {
  ExploreOptions o;
  o.stopAtFirstBug = false;
  o.maxSchedules = 1'000'000;
  ExploreResult r = Explorer(o).explore(racyBody);
  EXPECT_TRUE(r.exhausted);
  EXPECT_GT(r.oracleFailures, 1u) << "many schedules lose the update";
  EXPECT_LT(r.oracleFailures, r.schedules) << "some schedules pass";
}

TEST(Explorer, WorksOnSuiteProgram) {
  suite::registerBuiltins();
  auto program = suite::makeProgram("check_then_act");
  Explorer ex;
  ExploreResult r = ex.explore(
      [&](Runtime& rr) { program->body(rr); },
      [&](const rt::RunResult& res) {
        return program->evaluate(res) == suite::Verdict::BugManifested;
      },
      [&] { program->reset(); });
  EXPECT_TRUE(r.bugFound);
}

// --- DPOR (--sleep-sets) against naive DFS ----------------------------------

struct Enumeration {
  ExploreResult result;
  /// status | verdict | program outcome of every executed run.
  std::set<std::string> fingerprints;
  /// "deadlock" / "assertion" for every run whose oracle reported a bug.
  std::set<std::string> bugKinds;
};

// Exhausts suite program `name` with the naive DFS or with DPOR, collecting
// the fingerprint of every run the oracle sees.
Enumeration enumerate(const std::string& name, bool dpor,
                      std::uint64_t budget = 2'000'000) {
  suite::registerBuiltins();
  auto program = suite::makeProgram(name);
  ExploreOptions o;
  o.stopAtFirstBug = false;
  o.maxSchedules = budget;
  o.sleepSets = dpor;
  Enumeration e;
  e.result = Explorer(o).explore(
      [&](Runtime& rr) { program->body(rr); },
      [&](const rt::RunResult& res) {
        const bool bug =
            program->evaluate(res) == suite::Verdict::BugManifested;
        e.fingerprints.insert(std::string(rt::to_string(res.status)) + "|" +
                              (bug ? "bug" : "ok") + "|" + program->outcome());
        if (bug) {
          e.bugKinds.insert(res.status == rt::RunStatus::Deadlock
                                ? "deadlock"
                                : "assertion");
        }
        return bug;
      },
      [&] { program->reset(); });
  return e;
}

// The soundness contract, checked against an independent engine: DPOR
// reaches the same verdict and the same set of run fingerprints as naive
// search, never executes a sleep-blocked run, and never runs more (with
// `strictly`, fewer).
void expectDporMatchesNaive(const std::string& name, bool strictly = false) {
  const Enumeration naive = enumerate(name, false);
  const Enumeration dpor = enumerate(name, true);
  ASSERT_TRUE(naive.result.exhausted) << name;
  ASSERT_TRUE(dpor.result.exhausted) << name;
  EXPECT_EQ(naive.result.prunedRuns, 0u);
  EXPECT_EQ(dpor.result.prunedRuns, 0u) << name;
  EXPECT_LE(dpor.result.schedules, naive.result.schedules) << name;
  if (strictly) {
    EXPECT_LT(dpor.result.schedules, naive.result.schedules) << name;
  }
  EXPECT_EQ(naive.result.bugFound, dpor.result.bugFound) << name;
  EXPECT_EQ(naive.fingerprints, dpor.fingerprints)
      << name << ": the reduction may only drop Mazurkiewicz-equivalent runs";
}

TEST(SleepSets, ExhaustCheckThenActWithFewerSchedules) {
  expectDporMatchesNaive("check_then_act", /*strictly=*/true);
}

TEST(SleepSets, ExhaustAccountWithFewerSchedules) {
  expectDporMatchesNaive("account", /*strictly=*/true);
}

// Every suite program whose naive search exhausts within 200k schedules
// (the largest, mp_reorder_fixed, takes 34 325).
class DporAgreesWithNaive : public ::testing::TestWithParam<std::string> {};

TEST_P(DporAgreesWithNaive, SameVerdictAndFingerprintsWithNoPrunedRuns) {
  expectDporMatchesNaive(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Dpor, DporAgreesWithNaive,
    ::testing::Values("account", "account_sync", "barrier_reuse",
                      "check_then_act", "crash_deref", "double_checked_lock",
                      "flag_publish", "flag_publish_fixed",
                      "lock_order_inversion", "mp_reorder_fixed",
                      "notify_lost", "order_violation",
                      "producer_consumer_sem", "rwlock_upgrade",
                      "seqlock_torn_read_fixed", "sleep_sync"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(Dpor, ReadLocksCommuteWithoutLosingWriterInterleavings) {
  // DPOR lets the read-locks and read-unlocks of different threads commute
  // (naive DFS cannot exhaust even this program within 2M runs).  The
  // writer's one section can still land before, between or after each
  // reader's two sections: all 3 x 3 snapshot pairs must appear.
  std::set<std::string> outcomes;
  std::string seen;
  ExploreOptions o;
  o.stopAtFirstBug = false;
  o.maxSchedules = 100'000;
  o.sleepSets = true;
  ExploreResult r = Explorer(o).explore(
      [&](Runtime& rt) {
        rt::RwLock l(rt, "l");
        SharedVar<int> a(rt, "a", 0);
        std::string got[2];
        auto reader = [&](int id) {
          for (int k = 0; k < 2; ++k) {
            rt::ReadGuard g(l);
            got[id] += std::to_string(a.read());
          }
        };
        Thread r0(rt, "r0", [&] { reader(0); });
        Thread r1(rt, "r1", [&] { reader(1); });
        Thread w(rt, "w", [&] {
          rt::WriteGuard g(l);
          a.write(1);
        });
        r0.join();
        r1.join();
        w.join();
        seen = got[0] + "/" + got[1];
      },
      [&](const rt::RunResult& res) {
        EXPECT_TRUE(res.ok());
        outcomes.insert(seen);
        return false;
      });
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.prunedRuns, 0u);
  std::set<std::string> expected;
  for (const char* x : {"00", "01", "11"}) {
    for (const char* y : {"00", "01", "11"}) {
      expected.insert(std::string(x) + "/" + y);
    }
  }
  EXPECT_EQ(outcomes, expected);
}

TEST(Dpor, VerdictsMatchTheModelChecker) {
  // The 8 programs with an IR model: is a bug reachable, and is it a
  // deadlock or an assertion?  model::check is a separate engine with its
  // own search (stateful DFS over the IR), so agreement is evidence.  Where
  // DPOR cannot exhaust a buggy program within the budget (the IR model of
  // read_modify_write keeps 2 of its 4 increments per thread), the kinds it
  // found must be ones the model checker reports.
  suite::registerBuiltins();
  int compared = 0;
  for (const std::string& name : suite::allProgramNames()) {
    auto program = suite::makeProgram(name);
    const model::Program* ir = program->irModel();
    if (ir == nullptr) continue;
    ++compared;
    const model::CheckResult mc = model::check(*ir);
    ASSERT_TRUE(mc.exhausted) << name;
    std::set<std::string> modelKinds;
    if (mc.deadlocks > 0) modelKinds.insert("deadlock");
    if (mc.assertViolations > 0) modelKinds.insert("assertion");
    const Enumeration dpor = enumerate(name, true, 20'000);
    EXPECT_EQ(dpor.result.bugFound, mc.foundBug()) << name;
    if (dpor.result.exhausted) {
      EXPECT_EQ(dpor.bugKinds, modelKinds) << name;
    } else {
      EXPECT_TRUE(dpor.result.bugFound) << name << ": a control must exhaust";
      EXPECT_TRUE(std::includes(modelKinds.begin(), modelKinds.end(),
                                dpor.bugKinds.begin(), dpor.bugKinds.end()))
          << name;
    }
  }
  EXPECT_EQ(compared, 8);
}

TEST(Dpor, RejectsAPreemptionBound) {
  ExploreOptions o;
  o.sleepSets = true;
  o.preemptionBound = 1;
  EXPECT_THROW(Explorer(o).explore(racyBody), std::invalid_argument);
  EXPECT_THROW(ExplorerPolicy(0, true), std::invalid_argument);
}

TEST(SleepSets, PruneCleanLockedProgram) {
  // The mutex-protected increments commute almost everywhere: DPOR must
  // exhaust the same (bug-free) space with strictly fewer runs, none of
  // them sleep-blocked.
  ExploreOptions naive, slept;
  naive.stopAtFirstBug = slept.stopAtFirstBug = false;
  naive.maxSchedules = slept.maxSchedules = 1'000'000;
  slept.sleepSets = true;
  ExploreResult n = Explorer(naive).explore(cleanBody);
  ExploreResult s = Explorer(slept).explore(cleanBody);
  ASSERT_TRUE(n.exhausted);
  ASSERT_TRUE(s.exhausted);
  EXPECT_FALSE(s.bugFound);
  EXPECT_LT(s.schedules, n.schedules);
  EXPECT_EQ(s.prunedRuns, 0u);
}

TEST(SleepSets, StillFindDeadlocksAndTheCounterexampleReplays) {
  ExploreOptions o;
  o.sleepSets = true;
  ExploreResult r = Explorer(o).explore(inversionBody);
  ASSERT_TRUE(r.bugFound);
  EXPECT_EQ(r.bugResult.status, rt::RunStatus::Deadlock);
  EXPECT_EQ(r.prunedRuns, 0u);
  rt::ReplayPolicy rep(r.counterexample);
  rt::ControlledRuntime replayRt(std::make_unique<rt::PolicyRef>(rep));
  rt::RunResult rr = replayRt.run(inversionBody, rt::RunOptions{});
  EXPECT_EQ(rr.status, rt::RunStatus::Deadlock);
  EXPECT_FALSE(rep.diverged());
}

TEST(Explorer, CustomOracleDrivesSearch) {
  // Oracle looking for a specific outcome rather than a failure.
  Explorer ex;
  int target = 0;
  ExploreResult r = ex.explore(
      [&](Runtime& rt) {
        SharedVar<int> c(rt, "c", 0);
        Thread a(rt, "a", [&] { c.write(1); });
        Thread b(rt, "b", [&] { c.write(2); });
        a.join();
        b.join();
        target = c.read();
      },
      [&](const rt::RunResult&) { return target == 1; });
  EXPECT_TRUE(r.bugFound) << "some schedule ends with c == 1";
}

}  // namespace
}  // namespace mtt::explore

