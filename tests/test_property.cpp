// Property tests swept across the ENTIRE program catalog (parameterized on
// every registered program): framework-level invariants that must hold for
// any benchmark program, present or future.
//
//   P1 determinism      — controlled runs are bit-identical per (seed,
//                         policy): same status, outcome and event signature;
//   P2 replay exactness — any recorded controlled run replays exactly;
//   P3 trace fidelity   — record -> serialize -> parse -> feed produces the
//                         identical event stream (text and binary);
//   P4 offline=online   — detectors reach the same verdict from the trace
//                         as they did live;
//   P5 noise safety     — noise never makes a control program fail;
//   P6 abort hygiene    — aborted runs (deadlock/assert) never wedge, leak
//                         threads, or corrupt the next run.
#include <gtest/gtest.h>

#include <cstdlib>

#include "noise/noise.hpp"
#include "race/detectors.hpp"
#include "rt/harness.hpp"
#include "suite/program.hpp"
#include "test_util.hpp"
#include "trace/trace.hpp"

namespace mtt::suite {
namespace {

using testutil::EventCollector;

// wall_stall real-sleeps MTT_STALL_MS (default 2 s) in every run where it
// manifests; the properties need its failing runs, not the stall.  A value
// already in the environment is kept.
class NoWallStall : public ::testing::Environment {
  void SetUp() override { ::setenv("MTT_STALL_MS", "0", /*overwrite=*/0); }
};
[[maybe_unused]] ::testing::Environment* const kNoWallStall =
    ::testing::AddGlobalTestEnvironment(new NoWallStall);

struct RunCapture {
  rt::RunResult result;
  std::string outcome;
  std::string signature;
  trace::Trace trace;
  rt::Schedule decisions;
};

// One random-policy run of `p` on `rt`, which may have run before.
RunCapture captureOn(rt::ControlledRuntime& rt, Program& p,
                     std::uint64_t seed, Listener* extra = nullptr) {
  p.reset();
  rt.setPolicy(std::make_unique<rt::RecordingPolicy>(
      std::make_unique<rt::RandomPolicy>()));
  EventCollector col;
  trace::TraceRecorder rec(rt);
  rt.hooks().clear();
  rt.hooks().add(&col);
  rt.hooks().add(&rec);
  if (extra != nullptr) rt.hooks().add(extra);
  rt::RunOptions o = p.defaultRunOptions();
  o.seed = seed;
  o.programName = p.name();
  RunCapture cap;
  cap.result = rt.run([&](rt::Runtime& rr) { p.body(rr); }, o);
  rt.hooks().clear();
  cap.outcome = p.outcome();
  cap.signature = col.signature();
  cap.trace = rec.takeTrace();
  cap.decisions = static_cast<rt::RecordingPolicy&>(rt.policy()).schedule();
  return cap;
}

RunCapture captureRun(Program& p, std::uint64_t seed,
                      Listener* extra = nullptr) {
  rt::ControlledRuntime rt;
  return captureOn(rt, p, seed, extra);
}

class AllProgramsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllProgramsTest, P1_ControlledRunsAreDeterministic) {
  auto p = makeProgram(GetParam());
  for (std::uint64_t s = 0; s < 3; ++s) {
    RunCapture a = captureRun(*p, s);
    RunCapture b = captureRun(*p, s);
    EXPECT_EQ(a.result.status, b.result.status) << "seed " << s;
    EXPECT_EQ(a.outcome, b.outcome) << "seed " << s;
    EXPECT_EQ(a.signature, b.signature) << "seed " << s;
    EXPECT_EQ(a.result.steps, b.result.steps) << "seed " << s;
  }
}

TEST_P(AllProgramsTest, P2_RecordedRunsReplayExactly) {
  auto p = makeProgram(GetParam());
  for (std::uint64_t s = 0; s < 3; ++s) {
    p->reset();
    rt::RecordingPolicy rec(std::make_unique<rt::RandomPolicy>());
    rt::ControlledRuntime rt(std::make_unique<rt::PolicyRef>(rec));
    EventCollector c1;
    rt.hooks().add(&c1);
    rt::RunOptions o = p->defaultRunOptions();
    o.seed = s;
    rt::RunResult r1 = rt.run([&](rt::Runtime& rr) { p->body(rr); }, o);
    std::string out1 = p->outcome();

    p->reset();
    rt::ReplayPolicy rep(rec.schedule());
    rt::ControlledRuntime rt2(std::make_unique<rt::PolicyRef>(rep));
    EventCollector c2;
    rt2.hooks().add(&c2);
    rt::RunResult r2 = rt2.run([&](rt::Runtime& rr) { p->body(rr); }, o);
    EXPECT_EQ(r2.status, r1.status) << "seed " << s;
    EXPECT_EQ(p->outcome(), out1) << "seed " << s;
    EXPECT_EQ(c2.signature(), c1.signature()) << "seed " << s;
    EXPECT_FALSE(rep.diverged()) << "seed " << s;
  }
}

TEST_P(AllProgramsTest, P3_TraceRoundTripsExactly) {
  auto p = makeProgram(GetParam());
  RunCapture cap = captureRun(*p, 7);
  auto sameEvents = [&](const trace::Trace& back) {
    ASSERT_EQ(back.events.size(), cap.trace.events.size());
    for (std::size_t i = 0; i < back.events.size(); ++i) {
      EXPECT_EQ(back.events[i].seq, cap.trace.events[i].seq);
      EXPECT_EQ(back.events[i].thread, cap.trace.events[i].thread);
      EXPECT_EQ(back.events[i].kind, cap.trace.events[i].kind);
      EXPECT_EQ(back.events[i].object, cap.trace.events[i].object);
      EXPECT_EQ(back.events[i].syncSite, cap.trace.events[i].syncSite);
      EXPECT_EQ(back.events[i].arg, cap.trace.events[i].arg);
      EXPECT_EQ(back.events[i].bugSite, cap.trace.events[i].bugSite);
    }
    EXPECT_EQ(back.threads, cap.trace.threads);
    EXPECT_EQ(back.sites.size(), cap.trace.sites.size());
  };
  {
    std::ostringstream os;
    trace::writeText(cap.trace, os);
    std::istringstream is(os.str());
    sameEvents(trace::readText(is));
  }
  {
    std::ostringstream os(std::ios::binary);
    trace::writeBinary(cap.trace, os);
    std::istringstream is(os.str(), std::ios::binary);
    sameEvents(trace::readBinary(is));
  }
}

TEST_P(AllProgramsTest, P4_OfflineDetectionEqualsOnline) {
  auto p = makeProgram(GetParam());
  for (const auto& det : {"eraser", "fasttrack"}) {
    auto online = race::makeDetector(det);
    RunCapture cap = captureRun(*p, 11, online.get());
    auto offline = race::makeDetector(det);
    trace::feed(cap.trace, *offline);
    EXPECT_EQ(offline->warningCount(), online->warningCount())
        << GetParam() << " / " << det;
    EXPECT_EQ(offline->trueAlarms(), online->trueAlarms())
        << GetParam() << " / " << det;
  }
}

TEST_P(AllProgramsTest, P5_NoiseNeverBreaksControls) {
  auto p = makeProgram(GetParam());
  if (!p->isControl()) GTEST_SKIP() << "buggy program";
  for (std::uint64_t s = 0; s < 6; ++s) {
    p->reset();
    rt::ControlledRuntime rt;
    noise::NoiseOptions no;
    no.strength = 0.5;
    noise::MixedNoise nm(rt, no);
    rt.hooks().add(&nm);
    rt::RunOptions o = p->defaultRunOptions();
    o.seed = s;
    rt::RunResult r = rt.run([&](rt::Runtime& rr) { p->body(rr); }, o);
    EXPECT_EQ(p->evaluate(r), Verdict::Pass)
        << GetParam() << " seed " << s << " status " << to_string(r.status)
        << " " << r.failureMessage;
  }
}

TEST_P(AllProgramsTest, P6_AbortedRunsDoNotPoisonTheNextRun) {
  // Run a batch on one reused runtime: whatever a run leaves behind,
  // aborted runs included, must not change the next run, so every capture
  // equals the same run on a fresh runtime.
  auto p = makeProgram(GetParam());
  rt::ControlledRuntime reused;
  for (std::uint64_t s = 0; s < 8; ++s) {
    RunCapture again = captureOn(reused, *p, s);
    RunCapture fresh = captureRun(*p, s);
    EXPECT_EQ(again.result.status, fresh.result.status) << "seed " << s;
    EXPECT_EQ(again.result.events, fresh.result.events) << "seed " << s;
    EXPECT_EQ(again.signature, fresh.signature) << "seed " << s;
    EXPECT_EQ(again.outcome, fresh.outcome) << "seed " << s;
    EXPECT_EQ(again.decisions.decisions, fresh.decisions.decisions)
        << "seed " << s;
  }
  // And a control program still passes afterwards on the same runtime.
  auto control = makeProgram("account_sync");
  RunCapture clean = captureOn(reused, *control, 1);
  EXPECT_TRUE(clean.result.ok());
  EXPECT_EQ(control->evaluate(clean.result), Verdict::Pass);
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, AllProgramsTest, ::testing::ValuesIn(allProgramNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace mtt::suite
