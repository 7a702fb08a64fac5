// Tests for the concurrency coverage models and the cross-run accumulator.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "core/wire.hpp"
#include "coverage/coverage.hpp"
#include "model/static.hpp"
#include "rt/harness.hpp"
#include "rt/primitives.hpp"

namespace mtt::coverage {
namespace {

using rt::LockGuard;
using rt::Mutex;
using rt::Runtime;
using rt::Semaphore;
using rt::SharedVar;
using rt::Thread;

/// Name resolver bound to a runtime.
std::function<std::string(ObjectId)> namesOf(rt::Runtime& rt) {
  return [&rt](ObjectId id) { return rt.objectInfo(id).name; };
}

void contentionBody(Runtime& rt) {
  SharedVar<int> shared(rt, "shared", 0);
  SharedVar<int> local(rt, "local", 0);  // only main touches it
  Mutex m(rt, "m");
  Thread t(rt, "t", [&] {
    LockGuard g(m);
    shared.write(shared.read() + 1);
  });
  {
    LockGuard g(m);
    shared.write(shared.read() + 1);
  }
  local.write(1);
  t.join();
}

TEST(VarContention, SharedVarCoveredLocalNot) {
  for (std::uint64_t s = 0; s < 20; ++s) {
    auto rt = rt::makeRuntime(RuntimeMode::Controlled);
    VarContentionCoverage cov(namesOf(*rt));
    rt->hooks().add(&cov);
    rt::RunOptions o;
    o.seed = s;
    rt->run(contentionBody, o);
    auto covered = cov.snapshot().covered;
    EXPECT_EQ(covered.count("local"), 0u) << "seed " << s;
    if (covered.count("shared")) return;  // found a contended schedule
  }
  FAIL() << "no schedule produced contention on 'shared'";
}

TEST(VarContention, SequentialAccessIsNotContention) {
  // Accesses by two threads ordered by join, far apart in the window.
  auto rt = rt::makeRuntime(RuntimeMode::Controlled);
  VarContentionCoverage cov(namesOf(*rt), /*window=*/2);
  rt->hooks().add(&cov);
  rt->run(
      [](Runtime& rr) {
        SharedVar<int> x(rr, "x", 0);
        SharedVar<int> pad(rr, "pad", 0);
        Thread t(rr, "t", [&] { x.write(1); });
        t.join();
        for (int i = 0; i < 10; ++i) pad.write(i);
        x.write(2);  // > window events after t's write
      },
      rt::RunOptions{});
  EXPECT_EQ(cov.snapshot().covered.count("x"), 0u);
}

TEST(SyncContention, FreeAndBlockedTasks) {
  // RoundRobin: never contended; Random: eventually both tasks covered.
  auto rt = rt::makeRuntime(
      RuntimeMode::Controlled, std::make_unique<rt::RoundRobinPolicy>());
  SyncContentionCoverage cov(namesOf(*rt));
  rt->hooks().add(&cov);
  rt->run(contentionBody, rt::RunOptions{});
  EXPECT_EQ(cov.snapshot().covered.count("m/free"), 1u);
  EXPECT_EQ(cov.snapshot().covered.count("m/blocked"), 0u);

  bool blockedSeen = false;
  for (std::uint64_t s = 0; s < 30 && !blockedSeen; ++s) {
    auto rt2 = rt::makeRuntime(RuntimeMode::Controlled);
    SyncContentionCoverage cov2(namesOf(*rt2));
    rt2->hooks().add(&cov2);
    rt::RunOptions o;
    o.seed = s;
    rt2->run(contentionBody, o);
    blockedSeen = cov2.snapshot().covered.count("m/blocked") != 0;
  }
  EXPECT_TRUE(blockedSeen);
}

TEST(SyncContention, SemaphoreBlockedAcquire) {
  auto rt = rt::makeRuntime(RuntimeMode::Controlled);
  SyncContentionCoverage cov(namesOf(*rt));
  rt->hooks().add(&cov);
  rt->run(
      [](Runtime& rr) {
        Semaphore sem(rr, "sem", 0);
        Thread t(rr, "t", [&] { sem.acquire(); });  // must block
        rr.sleepFor(std::chrono::milliseconds(1));
        sem.release();
        t.join();
      },
      rt::RunOptions{});
  EXPECT_EQ(cov.snapshot().covered.count("sem/blocked"), 1u);
}

TEST(LockPair, NestedOrderObserved) {
  auto rt = rt::makeRuntime(RuntimeMode::Controlled);
  LockPairCoverage cov(namesOf(*rt));
  rt->hooks().add(&cov);
  rt->run(
      [](Runtime& rr) {
        Mutex a(rr, "A"), b(rr, "B");
        LockGuard ga(a);
        LockGuard gb(b);
      },
      rt::RunOptions{});
  EXPECT_EQ(cov.snapshot().covered.count("A<B"), 1u);
  EXPECT_EQ(cov.snapshot().covered.count("B<A"), 0u);
}

TEST(SwitchPair, CoversOnlyCrossThreadAdjacency) {
  bool seen = false;
  for (std::uint64_t s = 0; s < 20 && !seen; ++s) {
    auto rt = rt::makeRuntime(RuntimeMode::Controlled);
    SwitchPairCoverage cov;
    rt->hooks().add(&cov);
    rt::RunOptions o;
    o.seed = s;
    rt->run(contentionBody, o);
    seen = cov.coveredCount() > 0;
  }
  EXPECT_TRUE(seen);
}

TEST(SitePoint, CoversExecutedSites) {
  auto rt = rt::makeRuntime(RuntimeMode::Controlled);
  SitePointCoverage cov;
  rt->hooks().add(&cov);
  rt->run(
      [](Runtime& rr) {
        SharedVar<int> x(rr, "x", 0);
        x.write(1, site("covtest.write"));
      },
      rt::RunOptions{});
  bool found = false;
  for (const auto& t : cov.snapshot().covered) {
    if (t.find("covtest.write") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ClosedUniverse, StaticFeasibilityFiltersTasks) {
  // The paper: "Static techniques could be used to evaluate which variables
  // can be accessed by multiple threads.  This evaluation is needed to
  // create the coverage metric."
  model::Program p("cov");
  int shared = p.addVar("shared", 0);
  int local = p.addVar("local", 0);
  p.thread("main").incrementVar(local, 1).incrementVar(shared, 1);
  p.thread("t").incrementVar(shared, 1);

  auto rt = rt::makeRuntime(RuntimeMode::Controlled);
  VarContentionCoverage cov(namesOf(*rt));
  cov.declareTasks(model::contentionTaskUniverse(p));
  EXPECT_TRUE(cov.closedUniverse());
  EXPECT_EQ(cov.taskCount(), 1u);  // only "shared" is feasible
  rt::RunOptions o;
  o.seed = 4;
  rt->run(contentionBody, o);
  // Ratio is now meaningful: covered/feasible, not covered/all.
  EXPECT_LE(cov.ratio(), 1.0);
  EXPECT_EQ(cov.snapshot().known.count("local"), 0u);
}

TEST(Accumulator, GrowthCurveAndSaturation) {
  CoverageAccumulator acc;
  auto runOne = [&](std::uint64_t seed) {
    auto rt = rt::makeRuntime(RuntimeMode::Controlled);
    SwitchPairCoverage cov;
    rt->hooks().add(&cov);
    rt::RunOptions o;
    o.seed = seed;
    rt->run(contentionBody, o);
    acc.addRun(cov);
  };
  for (std::uint64_t s = 0; s < 25; ++s) runOne(s);
  auto curve = acc.growthCurve();
  ASSERT_EQ(curve.size(), 25u);
  // Monotone non-decreasing.
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i], curve[i - 1]);
  }
  EXPECT_EQ(curve.back(), acc.totalCovered());
}

TEST(Accumulator, SaturationDetectsQuietTail) {
  CoverageAccumulator acc;
  // Synthesize: growth in runs 1-3, quiet afterwards.
  class FakeModel : public CoverageModel {
   public:
    std::string name() const override { return "fake"; }
    void onEvent(const Event&) override {}
    void coverNow(const std::string& t) {
      std::lock_guard<std::mutex> lk(mu_);
      cover(t);
    }
  };
  for (int run = 0; run < 8; ++run) {
    FakeModel m;
    m.coverNow("a");
    if (run < 3) m.coverNow("task" + std::to_string(run));
    acc.addRun(m);
  }
  EXPECT_EQ(acc.saturationRun(3), 4u);  // runs 4,5,6 added nothing
}

TEST(Snapshot, EncodeDecodeRoundTrip) {
  Snapshot s;
  s.known = {"a", "b/blocked", "long task name with spaces", "τ-unicode"};
  s.covered = {"a", "long task name with spaces"};
  s.closed = true;
  s.outsideUniverse = 3;
  Snapshot back = Snapshot::decode(s.encode());
  EXPECT_EQ(back, s);

  Snapshot empty;
  EXPECT_EQ(Snapshot::decode(empty.encode()), empty);
}

TEST(Snapshot, EncodeRejectsCoveredOutsideKnown) {
  Snapshot s;
  s.known = {"a"};
  s.covered = {"a", "stray"};
  EXPECT_THROW(s.encode(), std::logic_error);
}

TEST(Snapshot, MergeUnionsAndSumsInfeasibleHits) {
  Snapshot a;
  a.known = {"x", "y"};
  a.covered = {"x"};
  a.outsideUniverse = 2;
  Snapshot b;
  b.known = {"y", "z"};
  b.covered = {"z"};
  b.closed = true;
  b.outsideUniverse = 1;
  a.merge(b);
  EXPECT_EQ(a.known, (std::set<std::string>{"x", "y", "z"}));
  EXPECT_EQ(a.covered, (std::set<std::string>{"x", "z"}));
  EXPECT_TRUE(a.closed);
  EXPECT_EQ(a.outsideUniverse, 3u);
}

TEST(Snapshot, NoveltyCountsTasksThePriorLacked) {
  Snapshot prior;
  prior.known = prior.covered = {"a", "b"};
  Snapshot run;
  run.known = run.covered = {"b", "c", "d"};
  EXPECT_EQ(run.novelty(prior), 2u);
  EXPECT_EQ(prior.novelty(run), 1u);
  EXPECT_EQ(run.novelty(run), 0u);
}

TEST(Snapshot, CompleteOnlyForCoveredClosedUniverses) {
  Snapshot s;
  s.known = s.covered = {"a"};
  EXPECT_FALSE(s.complete());  // open: no notion of done
  s.closed = true;
  EXPECT_TRUE(s.complete());
  s.known.insert("b");
  EXPECT_FALSE(s.complete());
}

TEST(Snapshot, DecodeRejectsEveryTruncation) {
  Snapshot s;
  s.known = {"alpha", "beta", "gamma"};
  s.covered = {"beta"};
  s.outsideUniverse = 300;  // forces a multi-byte varint
  const std::string bytes = s.encode();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(Snapshot::decode(std::string_view(bytes.data(), len)),
                 std::runtime_error)
        << "prefix of length " << len << " decoded";
  }
  EXPECT_THROW(Snapshot::decode(bytes + "x"), std::runtime_error);
}

TEST(Snapshot, DecodeSurvivesSingleByteCorruption) {
  // Every single-byte mutation must either decode to *some* snapshot or
  // throw std::runtime_error — never crash or loop (the ASan job in CI
  // runs this as the decoder fuzz smoke).
  Snapshot s;
  s.known = {"alpha", "beta", "gamma", "delta"};
  s.covered = {"beta", "delta"};
  s.closed = true;
  const std::string bytes = s.encode();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int delta : {1, 0x55, 0xFF}) {
      std::string mut = bytes;
      mut[i] = static_cast<char>(static_cast<unsigned char>(mut[i]) ^ delta);
      try {
        (void)Snapshot::decode(mut);
      } catch (const std::runtime_error&) {
        // rejected: fine
      }
    }
  }
}

TEST(Snapshot, HexTransportRoundTrips) {
  const std::string raw("\x00\x7f\xff MSNP", 8);
  EXPECT_EQ(wire::fromHex(wire::toHex(raw)), raw);
  EXPECT_THROW(wire::fromHex("abc"), std::runtime_error);   // odd length
  EXPECT_THROW(wire::fromHex("zz"), std::runtime_error);    // non-hex
}

TEST(ResetTool, PreservesOpenUniverseAcrossRuns) {
  // Regression: resetTool used to wipe known_, so a pooled (reused) stack
  // restarted the task universe from scratch between farm runs while a
  // build-per-run stack kept discovering the same tasks — the growth curve
  // never converged.  Only per-run state may clear.
  auto rt = rt::makeRuntime(RuntimeMode::Controlled);
  VarContentionCoverage cov(namesOf(*rt));
  rt->hooks().add(&cov);
  std::uint64_t seed = 0;
  for (; seed < 20; ++seed) {
    rt::RunOptions o;
    o.seed = seed;
    rt->run(contentionBody, o);
    if (cov.coveredCount() > 0) break;
  }
  ASSERT_GT(cov.taskCount(), 0u);
  const std::size_t tasksBefore = cov.taskCount();

  cov.resetTool();
  EXPECT_EQ(cov.taskCount(), tasksBefore) << "resetTool dropped known tasks";
  EXPECT_EQ(cov.coveredCount(), 0u);
  EXPECT_EQ(cov.snapshot().outsideUniverse, 0u);
}

TEST(ResetTool, ReusedStackMatchesBuildPerRunSnapshots) {
  // The farm byte-determinism contract: a pooled model that has seen other
  // runs produces the same runSnapshot() for seed s as a fresh model.
  auto freshRun = [](std::uint64_t seed) {
    auto rt = rt::makeRuntime(RuntimeMode::Controlled);
    VarContentionCoverage cov(namesOf(*rt));
    rt->hooks().add(&cov);
    rt::RunOptions o;
    o.seed = seed;
    rt->run(contentionBody, o);
    return cov.runSnapshot();
  };

  auto rt = rt::makeRuntime(RuntimeMode::Controlled);
  VarContentionCoverage reused(namesOf(*rt));
  rt->hooks().add(&reused);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    reused.resetTool();
    rt::RunOptions o;
    o.seed = seed;
    rt->run(contentionBody, o);
    EXPECT_EQ(reused.runSnapshot(), freshRun(seed)) << "seed " << seed;
  }
}

TEST(Accumulator, NoSaturationWhileGrowing) {
  CoverageAccumulator acc;
  class FakeModel : public CoverageModel {
   public:
    std::string name() const override { return "fake"; }
    void onEvent(const Event&) override {}
    void coverNow(const std::string& t) {
      std::lock_guard<std::mutex> lk(mu_);
      cover(t);
    }
  };
  for (int run = 0; run < 5; ++run) {
    FakeModel m;
    m.coverNow("task" + std::to_string(run));
    acc.addRun(m);
  }
  EXPECT_EQ(acc.saturationRun(3), 0u);
}

#ifdef MTT_SOURCE_DIR
// The covered()/known() accessor shims were deleted after every caller
// migrated to snapshot()/runSnapshot(); this scan keeps them from creeping
// back in (a reintroduced call would copy string sets under the model
// mutex on every record).
TEST(RemovedShims, NoCoveredOrKnownAccessorCallsInTree) {
  namespace fs = std::filesystem;
  // Assembled at runtime so this file's own source lines never match.
  std::vector<std::string> banned;
  for (const char* name : {"covered", "known"}) {
    banned.push_back(std::string(".") + name + "()");
    banned.push_back(std::string("->") + name + "()");
  }
  std::vector<std::string> offenders;
  for (const char* sub : {"src", "tools", "bench", "tests"}) {
    fs::path root = fs::path(MTT_SOURCE_DIR) / sub;
    ASSERT_TRUE(fs::exists(root)) << root;
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file()) continue;
      fs::path p = entry.path();
      if (p.extension() != ".hpp" && p.extension() != ".cpp") continue;
      std::ifstream in(p);
      std::string line;
      std::size_t lineNo = 0;
      while (std::getline(in, line)) {
        ++lineNo;
        for (const std::string& token : banned) {
          if (line.find(token) != std::string::npos) {
            offenders.push_back(p.string() + ":" + std::to_string(lineNo) +
                                ": " + line);
          }
        }
      }
    }
  }
  EXPECT_TRUE(offenders.empty())
      << "deleted CoverageModel shim accessors referenced by:\n"
      << [&] {
           std::string all;
           for (const std::string& o : offenders) all += o + "\n";
           return all;
         }();
}
#endif  // MTT_SOURCE_DIR

}  // namespace
}  // namespace mtt::coverage
