// Tests for the prepared-experiment harness (benchmark component 2) and the
// cloning harness (Section 2.3).
#include <gtest/gtest.h>

#include "cloning/cloning.hpp"
#include "experiment/experiment.hpp"
#include "rt/primitives.hpp"

namespace mtt::experiment {
namespace {

TEST(Experiment, RunsAndCollectsBasics) {
  ExperimentSpec spec;
  spec.programName = "account";
  spec.runs = 30;
  spec.tool.noiseName = "none";
  spec.tool.policy = "random";
  ExperimentResult r = runExperiment(spec);
  EXPECT_EQ(r.runs, 30u);
  EXPECT_EQ(r.manifested.trials, 30u);
  EXPECT_GT(r.events.mean(), 0.0);
  EXPECT_GT(r.outcomes.total(), 0u);
  EXPECT_FALSE(r.statusCounts.empty());
}

TEST(Experiment, DeterministicForSameSeedBase) {
  ExperimentSpec spec;
  spec.programName = "read_modify_write";
  spec.runs = 25;
  spec.seedBase = 42;
  ExperimentResult a = runExperiment(spec);
  ExperimentResult b = runExperiment(spec);
  EXPECT_EQ(a.manifested.successes, b.manifested.successes);
  EXPECT_EQ(a.outcomes.counts(), b.outcomes.counts());
}

TEST(Experiment, RoundRobinWithoutNoiseNeverFindsAccountBug) {
  ExperimentSpec spec;
  spec.programName = "account";
  spec.runs = 20;
  spec.tool.policy = "rr";
  ExperimentResult r = runExperiment(spec);
  EXPECT_EQ(r.manifested.successes, 0u);
}

TEST(Experiment, NoiseBeatsNoNoiseUnderRoundRobin) {
  // The paper's headline comparison, miniaturized.
  ExperimentSpec base;
  base.programName = "account";
  base.runs = 40;
  base.tool.policy = "rr";
  base.tool.noiseName = "none";
  ExperimentSpec noisy = base;
  noisy.tool.noiseName = "mixed";
  noisy.tool.noiseOpts.strength = 0.4;
  ExperimentResult r0 = runExperiment(base);
  ExperimentResult r1 = runExperiment(noisy);
  EXPECT_EQ(r0.manifested.successes, 0u);
  EXPECT_GT(r1.manifested.successes, 0u);
  EXPECT_GT(r1.noiseInjections, 0u);
}

TEST(Experiment, DetectorsAccounted) {
  ExperimentSpec spec;
  spec.programName = "read_modify_write";
  spec.runs = 15;
  spec.tool.detectors = {"fasttrack"};
  ExperimentResult r = runExperiment(spec);
  EXPECT_EQ(r.detectorHit.trials, 15u);
  EXPECT_GT(r.detectorHit.successes, 0u)
      << "fasttrack should flag the rmw race in most schedules";
  EXPECT_GT(r.trueWarnings, 0u);
}

TEST(Experiment, EraserFalseAlarmsOnSemControl) {
  ExperimentSpec spec;
  spec.programName = "producer_consumer_sem";
  spec.runs = 10;
  spec.tool.detectors = {"eraser", "fasttrack"};
  ExperimentResult r = runExperiment(spec);
  EXPECT_GT(r.falseWarnings, 0u) << "eraser false-alarms on semaphores";
  EXPECT_EQ(r.trueWarnings, 0u) << "control program has no annotated bugs";
}

TEST(Experiment, LockGraphCountsPotentials) {
  ExperimentSpec spec;
  spec.programName = "lock_order_inversion";
  spec.runs = 10;
  spec.tool.lockGraph = true;
  ExperimentResult r = runExperiment(spec);
  EXPECT_GT(r.deadlockPotentials, 0u);
}

TEST(Experiment, TargetedNoiseUsesTargets) {
  ExperimentSpec spec;
  spec.programName = "account";
  spec.runs = 20;
  spec.tool.policy = "rr";
  spec.tool.noiseName = "targeted";
  spec.tool.noiseTargets = {"balance"};
  spec.tool.noiseOpts.strength = 0.25;
  ExperimentResult r = runExperiment(spec);
  EXPECT_GT(r.noiseInjections, 0u);
  EXPECT_GT(r.manifested.successes, 0u);
}

TEST(Experiment, LabelsAreDescriptive) {
  ToolConfig t;
  t.noiseName = "mixed";
  t.detectors = {"eraser"};
  t.policy = "rr";
  EXPECT_EQ(t.label(), "mixed+eraser/ctl-rr");
  t.mode = RuntimeMode::Native;
  EXPECT_EQ(t.label(), "mixed+eraser/native");
}

TEST(Experiment, ReportsRender) {
  ExperimentSpec spec;
  spec.programName = "account";
  spec.runs = 5;
  spec.tool.detectors = {"fasttrack"};
  auto r = runExperiment(spec);
  std::string fr = findRateReport("E1 mini", {r});
  EXPECT_NE(fr.find("account"), std::string::npos);
  EXPECT_NE(fr.find("manifested"), std::string::npos);
  std::string dr = detectorReport("E3 mini", {r});
  EXPECT_NE(dr.find("false-rate"), std::string::npos);
}

TEST(Experiment, UnknownNamesThrow) {
  ExperimentSpec spec;
  spec.programName = "account";
  spec.runs = 1;
  spec.tool.noiseName = "bogus";
  EXPECT_THROW(runExperiment(spec), std::runtime_error);
  spec.tool.noiseName = "none";
  spec.tool.detectors = {"bogus"};
  EXPECT_THROW(runExperiment(spec), std::runtime_error);
  EXPECT_THROW(makePolicy("bogus"), std::runtime_error);
}

TEST(Experiment, PolicyGrammarAcceptsParameterizedSpecs) {
  EXPECT_NE(makePolicy("rr"), nullptr);
  EXPECT_NE(makePolicy("random"), nullptr);
  EXPECT_NE(makePolicy("random:switch=0.5"), nullptr);
  EXPECT_NE(makePolicy("pct"), nullptr);
  EXPECT_NE(makePolicy("pct:d=3,k=128"), nullptr);
  EXPECT_NE(makePolicy("priority:d=2"), nullptr);  // historical alias
  EXPECT_NE(makePolicy("pos"), nullptr);
  const auto names = policyNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "pct"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "pos"), names.end());
}

TEST(Experiment, PolicyGrammarRejectsMalformedSpecsNamingTheGrammar) {
  auto expectBad = [](const std::string& spec) {
    try {
      makePolicy(spec);
      FAIL() << "'" << spec << "' should not parse";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("grammar"), std::string::npos)
          << spec << " -> " << e.what();
    }
  };
  expectBad("pct:d=oops");       // non-numeric value
  expectBad("pct:d=0");          // d must be >= 1
  expectBad("pct:d=");           // empty value
  expectBad("pct:bogus=1");      // unknown parameter
  expectBad("pct:d");            // missing '='
  expectBad("random:switch=2");  // probability out of range
  expectBad("rr:d=1");           // rr takes no parameters
  expectBad("pos:d=1");          // pos takes no parameters
  expectBad("pct:d=-1");         // negative: not a non-negative integer
  expectBad("pct:d= 3");         // leading blank inside the value
  expectBad("pct:k=+8");         // explicit sign
  // Unknown base names keep the plain unknown-policy diagnostic with the
  // valid list (validateToolConfig path).
  ToolConfig tc;
  tc.policy = "bogus";
  EXPECT_THROW(validateToolConfig(tc), std::runtime_error);
}

// --- owned tool stacks (Hook API v2) ----------------------------------------

TEST(ToolStack, BuilderOwnsToolsInRegistrationOrder) {
  ToolStackBuilder b;
  b.detector("fasttrack").detector("eraser").lockGraph().noise("yield");
  ToolStack s = b.build();
  EXPECT_EQ(s.size(), 4u);
  ASSERT_EQ(s.detectors().size(), 2u);
  EXPECT_NE(s.lockGraph(), nullptr);
  EXPECT_NE(s.noiseMaker(), nullptr);
  // Registration order: detectors, lock graph, then noise last.
  ASSERT_EQ(s.listeners().size(), 4u);
  EXPECT_EQ(s.listeners()[0], s.detectors()[0]);
  EXPECT_EQ(s.listeners()[1], s.detectors()[1]);
  EXPECT_EQ(s.listeners()[2], s.lockGraph());
  EXPECT_EQ(s.listeners()[3], s.noiseMaker());
}

TEST(ToolStack, BuilderRejectsAnalysisAfterNoise) {
  // The ordering convention the hook API documents is now enforced: noise
  // makers must register last so tools observe events pre-perturbation.
  ToolStackBuilder b;
  b.detector("fasttrack").noise("yield");
  EXPECT_THROW(b.detector("eraser"), std::logic_error);
  EXPECT_THROW(ToolStackBuilder().noise("mixed").lockGraph(),
               std::logic_error);
  EXPECT_THROW(ToolStackBuilder().noise("mixed").traceRecorder(),
               std::logic_error);
}

TEST(ToolStack, BuilderRejectsUnknownNames) {
  EXPECT_THROW(ToolStackBuilder().detector("bogus"), std::runtime_error);
  EXPECT_THROW(ToolStackBuilder().noise("bogus"), std::runtime_error);
}

TEST(ToolStack, ReusedStackMatchesBuildPerRun) {
  // The refactor's hard invariant: executeRun with a reused (reset) stack
  // must observe exactly what the build-tools-per-run path observes.
  ExperimentSpec spec;
  spec.programName = "account";
  spec.runs = 12;
  spec.seedBase = 5;
  spec.tool.detectors = {"fasttrack", "eraser"};
  spec.tool.lockGraph = true;
  spec.tool.noiseName = "mixed";
  spec.tool.noiseOpts.strength = 0.4;
  ToolStack reused = makeToolStack(spec.tool);
  for (std::size_t i = 0; i < spec.runs; ++i) {
    ToolStack freshTools = makeToolStack(spec.tool);
    RunObservation fresh = executeRun(spec, i, freshTools);
    RunObservation pooled = executeRun(spec, i, reused);
    EXPECT_EQ(pooled.seed, fresh.seed) << "run " << i;
    EXPECT_EQ(pooled.status, fresh.status) << "run " << i;
    EXPECT_EQ(pooled.manifested, fresh.manifested) << "run " << i;
    EXPECT_EQ(pooled.detectorHit, fresh.detectorHit) << "run " << i;
    EXPECT_EQ(pooled.warnings, fresh.warnings) << "run " << i;
    EXPECT_EQ(pooled.trueWarnings, fresh.trueWarnings) << "run " << i;
    EXPECT_EQ(pooled.falseWarnings, fresh.falseWarnings) << "run " << i;
    EXPECT_EQ(pooled.deadlockPotentials, fresh.deadlockPotentials)
        << "run " << i;
    EXPECT_EQ(pooled.events, fresh.events) << "run " << i;
    EXPECT_EQ(pooled.noiseInjections, fresh.noiseInjections) << "run " << i;
    EXPECT_EQ(pooled.outcome, fresh.outcome) << "run " << i;
    EXPECT_EQ(pooled.dispatchDeliveries, fresh.dispatchDeliveries)
        << "run " << i;
  }
}

TEST(ToolStack, ResetClearsAccumulatedResults) {
  ExperimentSpec spec;
  spec.programName = "read_modify_write";
  spec.runs = 1;
  spec.tool.detectors = {"fasttrack"};
  ToolStack tools = makeToolStack(spec.tool);
  RunObservation first = executeRun(spec, 0, tools);
  ASSERT_GT(first.warnings, 0u) << "fixture needs a warning-producing run";
  tools.reset();
  EXPECT_EQ(tools.detectors()[0]->warningCount(), 0u);
}

TEST(ToolStack, ByteIdenticalTimingFreeReports) {
  // Same spec through fresh-stack and reused-stack paths, rendered with
  // timing off, must produce bitwise-identical report text.
  ExperimentSpec spec;
  spec.programName = "account";
  spec.runs = 10;
  spec.seedBase = 3;
  spec.tool.detectors = {"fasttrack"};
  spec.tool.noiseName = "mixed";
  spec.tool.noiseOpts.strength = 0.3;
  auto runWithReusedStack = [&] {
    ExperimentResult r;
    r.programName = spec.programName;
    r.toolLabel = spec.tool.label();
    r.runs = spec.runs;
    ToolStack tools = makeToolStack(spec.tool);
    for (std::size_t i = 0; i < spec.runs; ++i) {
      accumulate(r, executeRun(spec, i, tools));
    }
    return r;
  };
  ExperimentResult serial = runExperiment(spec);
  ExperimentResult pooled = runWithReusedStack();
  ReportOptions opts;
  opts.timing = false;
  EXPECT_EQ(findRateReport("t", {serial}, opts),
            findRateReport("t", {pooled}, opts));
  EXPECT_EQ(detectorReport("t", {serial}), detectorReport("t", {pooled}));
}

TEST(ToolStack, PoolReusesReturnedStacks) {
  int built = 0;
  ToolStackPool pool([&built] {
    ++built;
    ToolStackBuilder b;
    b.detector("fasttrack");
    return b.build();
  });
  {
    auto lease = pool.acquire();
    EXPECT_EQ(lease->size(), 1u);
    EXPECT_EQ(built, 1);
  }
  {
    auto a = pool.acquire();  // pooled: no new build
    auto b = pool.acquire();  // pool empty again: builds a second stack
    EXPECT_EQ(built, 2);
  }
  {
    auto a = pool.acquire();
    auto b = pool.acquire();
    EXPECT_EQ(built, 2);  // both leases recycled
  }
}

TEST(ToolStack, BorrowedListenerIsRegisteredNotOwned) {
  class Probe final : public Listener {
   public:
    void onEvent(const Event&) override { ++events; }
    int events = 0;
  };
  Probe probe;
  ToolStackBuilder b;
  b.borrowed(&probe);
  ToolStack s = b.build();
  ASSERT_EQ(s.listeners().size(), 1u);
  EXPECT_EQ(s.listeners()[0], &probe);
  auto rt = rt::makeRuntime(RuntimeMode::Controlled);
  s.attach(*rt);
  rt::RunOptions o;
  rt->run(
      [](rt::Runtime& rr) {
        rt::SharedVar<int> v(rr, "v", 0);
        v.write(1);
      },
      o);
  EXPECT_GT(probe.events, 0);
}

}  // namespace
}  // namespace mtt::experiment

namespace mtt::cloning {
namespace {

using rt::LockGuard;
using rt::Mutex;
using rt::Runtime;
using rt::SharedVar;

TEST(Cloning, AllClonesRunAndPass) {
  auto rt = rt::makeRuntime(RuntimeMode::Controlled);
  // Fixture: a correct per-clone slot array.
  rt::SharedArray<int> slots(*rt, "slots", 8, 0);
  CloneSpec spec;
  spec.name = "slot-writer";
  spec.clones = 8;
  spec.body = [&](Runtime&, int idx) { slots.write(idx, idx + 1); };
  spec.check = [&](int idx) { return slots.plainGet(idx) == idx + 1; };
  CloneResult r = runCloned(*rt, spec);
  EXPECT_TRUE(r.allPassed);
  EXPECT_EQ(r.failedClones, 0u);
  EXPECT_EQ(r.clonePassed.size(), 8u);
}

TEST(Cloning, DetectsPerCloneFailures) {
  auto rt = rt::makeRuntime(RuntimeMode::Controlled);
  SharedVar<int> counter(*rt, "counter", 0);
  CloneSpec spec;
  spec.name = "racy-counter";
  spec.clones = 4;
  spec.body = [&](Runtime&, int) {
    int v = counter.read();
    counter.write(v + 1);
  };
  // Interpreting clone results: every clone expects the final counter to
  // equal the clone count — fails when updates were lost.
  spec.check = [&](int) { return counter.plainGet() == 4; };
  bool sawFailure = false, sawPass = false;
  for (std::uint64_t s = 0; s < 40 && !(sawFailure && sawPass); ++s) {
    auto rt2 = rt::makeRuntime(RuntimeMode::Controlled);
    SharedVar<int> c2(*rt2, "counter", 0);
    CloneSpec sp = spec;
    sp.body = [&](Runtime&, int) {
      int v = c2.read();
      c2.write(v + 1);
    };
    sp.check = [&](int) { return c2.plainGet() == 4; };
    rt::RunOptions o;
    o.seed = s;
    CloneResult r = runCloned(*rt2, sp, o);
    (r.allPassed ? sawPass : sawFailure) = true;
  }
  EXPECT_TRUE(sawFailure) << "cloning must expose the lost update";
  EXPECT_TRUE(sawPass);
}

TEST(Cloning, SequentialVsClonedComparison) {
  // "Because the same test is cloned many times, contentions are almost
  // guaranteed": failure rate with k clones must dominate 1 clone.
  auto makeRun = [](int clones, std::uint64_t seed) {
    auto rt = rt::makeRuntime(RuntimeMode::Controlled);
    auto counter = std::make_shared<SharedVar<int>>(*rt, "counter", 0);
    CloneSpec spec;
    spec.name = "inc";
    spec.clones = clones;
    spec.body = [counter](Runtime&, int) {
      int v = counter->read();
      counter->write(v + 1);
    };
    spec.check = [counter, clones](int) {
      return counter->plainGet() == clones;
    };
    rt::RunOptions o;
    o.seed = seed;
    return runCloned(*rt, spec, o);
  };
  CloneComparison cmp = compareCloning(makeRun, 4, 60);
  EXPECT_EQ(cmp.sequentialFail.successes, 0u)
      << "a single clone cannot race with itself";
  EXPECT_GT(cmp.clonedFail.successes, 0u);
}

}  // namespace
}  // namespace mtt::cloning
