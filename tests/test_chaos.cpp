// Tests for mtt::chaos and the robustness machinery underneath it: the
// unified core::Backoff schedule, FaultPlan determinism and the plan-spec
// grammar, EINTR-hardened fleet I/O, journal fault injection with
// torn-tail repair and byte-identical resume, atomic-file fault atomicity,
// coordinator degraded mode, heartbeat/lease-timeout validation, and the
// end-to-end chaos campaign verdicts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <unistd.h>

#include "chaos/campaign.hpp"
#include "chaos/chaos.hpp"
#include "core/atomic_file.hpp"
#include "core/backoff.hpp"
#include "core/fault.hpp"
#include "experiment/experiment.hpp"
#include "farm/farm.hpp"
#include "farm/journal.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/net.hpp"

namespace mtt::chaos {
namespace {

namespace fs = std::filesystem;

std::string tempPath(const std::string& stem) {
  return (fs::temp_directory_path() /
          (stem + "." + std::to_string(::getpid())))
      .string();
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

experiment::ExperimentSpec accountSpec(std::size_t runs) {
  experiment::ExperimentSpec spec;
  spec.programName = "account";
  spec.runs = runs;
  spec.seedBase = 7;
  spec.tool.policy = "rr";
  spec.tool.noiseName = "mixed";
  spec.tool.noiseOpts.strength = 0.4;
  return spec;
}

std::string reportText(const experiment::ExperimentResult& r) {
  experiment::ReportOptions ro;
  ro.timing = false;
  return experiment::findRateReport("t", {r}, ro);
}

// --- core::Backoff -----------------------------------------------------------

TEST(Backoff, GrowsExponentiallyAndCaps) {
  core::BackoffPolicy p;
  p.initial = std::chrono::milliseconds(10);
  p.cap = std::chrono::milliseconds(2000);
  p.factor = 2;
  p.jitter = 0.0;
  EXPECT_EQ(core::backoffDelay(p, 1).count(), 10);
  EXPECT_EQ(core::backoffDelay(p, 2).count(), 20);
  EXPECT_EQ(core::backoffDelay(p, 5).count(), 160);
  EXPECT_EQ(core::backoffDelay(p, 8).count(), 1280);
  EXPECT_EQ(core::backoffDelay(p, 9).count(), 2000);
  // Attempt 64 of a doubling schedule must saturate at the cap, not shift
  // into undefined behavior or wrap to a tiny sleep.
  EXPECT_EQ(core::backoffDelay(p, 64).count(), 2000);
  // Attempt 0 is treated as the first retry.
  EXPECT_EQ(core::backoffDelay(p, 0).count(), 10);
}

TEST(Backoff, JitterIsDeterministicAndSubtractive) {
  core::BackoffPolicy p;
  p.initial = std::chrono::milliseconds(100);
  p.cap = std::chrono::milliseconds(2000);
  p.jitter = 0.5;
  p.seed = 42;
  for (std::uint32_t a = 1; a <= 10; ++a) {
    const auto d1 = core::backoffDelay(p, a);
    const auto d2 = core::backoffDelay(p, a);
    EXPECT_EQ(d1.count(), d2.count()) << "attempt " << a;
    core::BackoffPolicy noJitter = p;
    noJitter.jitter = 0.0;
    const auto nominal = core::backoffDelay(noJitter, a);
    EXPECT_LE(d1.count(), nominal.count()) << "attempt " << a;
    EXPECT_GE(d1.count(), nominal.count() / 2) << "attempt " << a;
  }
  // Distinct seeds de-synchronize: at least one attempt differs.
  core::BackoffPolicy other = p;
  other.seed = 43;
  bool differs = false;
  for (std::uint32_t a = 1; a <= 10 && !differs; ++a) {
    differs = core::backoffDelay(p, a) != core::backoffDelay(other, a);
  }
  EXPECT_TRUE(differs);
}

TEST(Backoff, StatefulWrapperWalksAndRewinds) {
  core::BackoffPolicy p;
  p.initial = std::chrono::milliseconds(10);
  p.jitter = 0.0;
  core::Backoff b(p);
  EXPECT_EQ(b.next().count(), 10);
  EXPECT_EQ(b.next().count(), 20);
  EXPECT_EQ(b.attempts(), 2u);
  b.reset();
  EXPECT_EQ(b.attempts(), 0u);
  EXPECT_EQ(b.next().count(), 10);
}

// --- FaultPlan determinism ---------------------------------------------------

/// Replays a fixed operation sequence against a fresh plan and returns the
/// sorted trigger trace.
std::vector<std::string> traceOf(const std::string& spec,
                                 std::uint64_t seed) {
  FaultPlan plan(parsePlan(spec), seed);
  for (int i = 0; i < 400; ++i) {
    plan.onOp(core::FaultOp::NetSend, "fleet.coord.send", 64);
    plan.onOp(core::FaultOp::NetRecv, "fleet.worker.recv", 128);
    plan.onOp(core::FaultOp::DiskWrite, "farm.journal.append", 96);
  }
  return plan.stats().trace;
}

TEST(FaultPlan, SameSeedSameFaultSequence) {
  const std::string spec = "sever:prob=0.1+stall:prob=0.1,ms=0";
  const auto a = traceOf(spec, 99);
  const auto b = traceOf(spec, 99);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(FaultPlan, DifferentSeedDifferentSequence) {
  const std::string spec = "sever:prob=0.1";
  EXPECT_NE(traceOf(spec, 1), traceOf(spec, 2));
}

TEST(FaultPlan, TimesCapsTotalTriggers) {
  FaultPlan plan(parsePlan("disk-full:site=farm.journal,times=3,prob=1"), 5);
  std::uint64_t failures = 0;
  for (int i = 0; i < 100; ++i) {
    const core::FaultDecision d =
        plan.onOp(core::FaultOp::DiskWrite, "farm.journal.append", 80);
    if (d.action == core::FaultDecision::Action::Fail) ++failures;
  }
  EXPECT_EQ(failures, 3u);
  EXPECT_EQ(plan.stats().triggers, 3u);
}

TEST(FaultPlan, AfterBytesArmsLate) {
  FaultPlan plan(parsePlan("disk-full:site=farm.journal,after=1000,prob=1"),
                 5);
  // 80 bytes/op: ops 1..12 accumulate <=960 bytes before the op, so the
  // rule stays dormant; it arms once the site has seen 1000 bytes.
  std::size_t firstFailure = 0;
  for (std::size_t i = 1; i <= 30 && firstFailure == 0; ++i) {
    const core::FaultDecision d =
        plan.onOp(core::FaultOp::DiskWrite, "farm.journal.append", 80);
    if (d.action == core::FaultDecision::Action::Fail) firstFailure = i;
  }
  EXPECT_GT(firstFailure, 12u);
  EXPECT_NE(firstFailure, 0u);
}

TEST(FaultPlan, SiteFilterRestricts) {
  FaultPlan plan(parsePlan("sever:site=fleet.worker,prob=1"), 5);
  EXPECT_EQ(plan.onOp(core::FaultOp::NetSend, "fleet.coord.send", 10).action,
            core::FaultDecision::Action::None);
  EXPECT_EQ(plan.onOp(core::FaultOp::NetSend, "fleet.worker.send", 10).action,
            core::FaultDecision::Action::Sever);
}

// --- plan-spec grammar -------------------------------------------------------

TEST(ParsePlan, AcceptsPresetsAndCompoundRules) {
  for (const char* preset : {"sever", "stall", "partial", "heartbeat",
                             "disk-full", "fsync-fail"}) {
    EXPECT_FALSE(parsePlan(preset).empty()) << preset;
  }
  const auto rules =
      parsePlan("sever:prob=0.25,after=512+stall:ms=10,times=2");
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].cls, FaultClass::Sever);
  EXPECT_DOUBLE_EQ(rules[0].prob, 0.25);
  EXPECT_EQ(rules[0].afterBytes, 512u);
  EXPECT_EQ(rules[1].cls, FaultClass::Stall);
  EXPECT_EQ(rules[1].delay.count(), 10);
  EXPECT_EQ(rules[1].times, 2u);
}

TEST(ParsePlan, RejectsMalformedSpecsWithGrammar) {
  for (const char* bad : {"", "tornado", "sever:prob", "sever:prob=nope",
                          "sever:color=red", "sever:prob=2", "sever:times=-1",
                          "stall:ms=-5", "sever:prob=0.5x"}) {
    EXPECT_THROW(
        {
          try {
            parsePlan(bad);
          } catch (const std::runtime_error& e) {
            // Every rejection teaches the grammar.
            EXPECT_NE(std::string(e.what()).find("rule"), std::string::npos)
                << bad << ": " << e.what();
            throw;
          }
        },
        std::runtime_error)
        << bad;
  }
}

// --- EINTR hardening (satellite: fleet/net.cpp under an interrupting
// timer signal) ---------------------------------------------------------------

std::atomic<int> g_alarms{0};

void onAlarm(int) { g_alarms.fetch_add(1, std::memory_order_relaxed); }

/// Installs a fast-interval SIGALRM ticker WITHOUT SA_RESTART for the
/// lifetime of the object, so every blocking syscall on this thread keeps
/// getting EINTR'd.
class InterruptingTimer {
 public:
  InterruptingTimer() {
    g_alarms.store(0);
    struct sigaction sa {};
    sa.sa_handler = onAlarm;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // deliberately no SA_RESTART
    sigaction(SIGALRM, &sa, &old_);
    itimerval it{};
    it.it_interval.tv_usec = 2000;
    it.it_value.tv_usec = 2000;
    setitimer(ITIMER_REAL, &it, &oldTimer_);
  }
  ~InterruptingTimer() {
    setitimer(ITIMER_REAL, &oldTimer_, nullptr);
    sigaction(SIGALRM, &old_, nullptr);
  }

 private:
  struct sigaction old_ {};
  itimerval oldTimer_{};
};

TEST(FleetNetEintr, RecvSomeRetriesThroughInterruptingSignals) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // SIGALRM must land on this (blocked-in-recv) thread, not the writer.
  sigset_t mask, oldMask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGALRM);
  pthread_sigmask(SIG_UNBLOCK, &mask, &oldMask);

  const std::string payload = "interrupted but intact";
  std::thread writer([&] {
    sigset_t block;
    sigemptyset(&block);
    sigaddset(&block, SIGALRM);
    pthread_sigmask(SIG_BLOCK, &block, nullptr);
    // Long enough for dozens of 2 ms alarms to EINTR the blocked recv.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::string err;
    ASSERT_TRUE(fleet::sendAll(fds[1], payload, err, "test.send")) << err;
  });

  std::string got;
  {
    InterruptingTimer timer;
    char buf[256];
    while (got.size() < payload.size()) {
      fleet::RecvResult r =
          fleet::recvSome(fds[0], buf, sizeof buf, "test.recv");
      ASSERT_EQ(r.status, fleet::RecvStatus::Data) << r.err;
      got.append(buf, r.n);
    }
  }
  writer.join();
  pthread_sigmask(SIG_SETMASK, &oldMask, nullptr);
  EXPECT_EQ(got, payload);
  // The point of the test: the signal actually fired while we were blocked.
  EXPECT_GT(g_alarms.load(), 10);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(FleetNetEintr, SendAllCompletesLargeTransferUnderSignals) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // 4 MiB >> any socket buffer: sendAll must block repeatedly, eating
  // EINTRs and partial writes, while the reader drains slowly.
  std::string payload(4 << 20, 'x');
  for (std::size_t i = 0; i < payload.size(); i += 4096) {
    payload[i] = static_cast<char>('a' + (i / 4096) % 26);
  }
  std::atomic<std::size_t> received{0};
  std::thread reader([&] {
    sigset_t block;
    sigemptyset(&block);
    sigaddset(&block, SIGALRM);
    pthread_sigmask(SIG_BLOCK, &block, nullptr);
    char buf[8192];
    std::size_t total = 0;
    while (total < payload.size()) {
      const ssize_t n = ::recv(fds[0], buf, sizeof buf, 0);
      if (n < 0 && errno == EINTR) continue;
      ASSERT_GT(n, 0);
      total += static_cast<std::size_t>(n);
    }
    received.store(total);
  });

  sigset_t mask, oldMask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGALRM);
  pthread_sigmask(SIG_UNBLOCK, &mask, &oldMask);
  {
    InterruptingTimer timer;
    std::string err;
    ASSERT_TRUE(fleet::sendAll(fds[1], payload, err, "test.send")) << err;
  }
  reader.join();
  pthread_sigmask(SIG_SETMASK, &oldMask, nullptr);
  EXPECT_EQ(received.load(), payload.size());
  ::close(fds[0]);
  ::close(fds[1]);
}

// --- journal faults + resume (satellite: injected ENOSPC / short write) ------

/// Runs the spec serially with `plan` installed; expects the campaign to
/// latch an abort diagnostic, then resumes fault-free and demands the
/// resumed journal and report be byte-identical to an undisturbed baseline.
void journalFaultRoundTrip(const std::string& planSpec,
                           const std::string& tag) {
  const experiment::ExperimentSpec spec = accountSpec(40);
  const std::string baselinePath = tempPath("chaos.base." + tag);
  const std::string faultedPath = tempPath("chaos.fault." + tag);
  fs::remove(baselinePath);
  fs::remove(faultedPath);

  farm::FarmOptions serial;
  serial.jobs = 1;
  serial.scrubTiming = true;
  serial.journalPath = baselinePath;
  farm::ExperimentCampaign baseline = farm::runExperimentFarm(spec, serial);
  ASSERT_TRUE(baseline.campaign.abortDiagnostic.empty());

  // The same campaign with disk faults injected into the journal.
  FaultPlan plan(parsePlan(planSpec), 11);
  farm::FarmOptions faulted = serial;
  faulted.journalPath = faultedPath;
  farm::ExperimentCampaign hurt;
  {
    core::FaultScope scope(&plan);
    hurt = farm::runExperimentFarm(spec, faulted);
  }
  EXPECT_EQ(plan.stats().triggers, 1u);
  // The campaign stopped, named its fault, and did not journal the record
  // whose append failed.
  ASSERT_FALSE(hurt.campaign.abortDiagnostic.empty());
  EXPECT_NE(hurt.campaign.abortDiagnostic.find("journal"), std::string::npos);
  EXPECT_TRUE(hurt.campaign.stoppedEarly);
  EXPECT_LT(farm::loadJournal(faultedPath).records.size(), spec.runs);

  // Fault-free resume reconstructs the baseline bit for bit: same report,
  // same journal file (serial order makes even the raw bytes equal).
  farm::FarmOptions resume = serial;
  resume.journalPath = faultedPath;
  resume.resume = true;
  farm::ExperimentCampaign resumed = farm::runExperimentFarm(spec, resume);
  EXPECT_TRUE(resumed.campaign.abortDiagnostic.empty());
  EXPECT_EQ(reportText(resumed.result), reportText(baseline.result));
  EXPECT_EQ(readFile(faultedPath), readFile(baselinePath));

  fs::remove(baselinePath);
  fs::remove(faultedPath);
}

TEST(JournalFaults, EnospcAbortsWithResumableJournal) {
  journalFaultRoundTrip("disk-full:site=farm.journal,after=512,times=1",
                        "enospc");
}

TEST(JournalFaults, ShortWriteLeavesTornTailThatResumeRepairs) {
  const experiment::ExperimentSpec spec = accountSpec(40);
  const std::string path = tempPath("chaos.torn");
  fs::remove(path);
  FaultPlan plan(
      parsePlan("disk-short:site=farm.journal,after=512,bytes=9,prob=1,"
                "times=1"),
      11);
  farm::FarmOptions serial;
  serial.jobs = 1;
  serial.scrubTiming = true;
  serial.journalPath = path;
  farm::ExperimentCampaign hurt;
  {
    core::FaultScope scope(&plan);
    hurt = farm::runExperimentFarm(spec, serial);
  }
  ASSERT_FALSE(hurt.campaign.abortDiagnostic.empty());
  EXPECT_NE(hurt.campaign.abortDiagnostic.find("short write"),
            std::string::npos);
  // The injected short write left a real torn tail: a 9-byte prefix of a
  // record line with no newline, which the loader must drop, not trust.
  farm::JournalData jd = farm::loadJournal(path);
  EXPECT_TRUE(jd.tornTail);
  const std::string raw = readFile(path);
  ASSERT_FALSE(raw.empty());
  EXPECT_NE(raw.back(), '\n');

  // Resume repairs the tail and finishes the campaign; the repaired journal
  // must hold every record exactly once.
  farm::FarmOptions resume = serial;
  resume.resume = true;
  {
    // No injector installed: the resume runs fault-free.
    farm::ExperimentCampaign resumed = farm::runExperimentFarm(spec, resume);
    EXPECT_TRUE(resumed.campaign.abortDiagnostic.empty());
  }
  farm::JournalData repaired = farm::loadJournal(path);
  EXPECT_FALSE(repaired.tornTail);
  EXPECT_EQ(repaired.records.size(), spec.runs);
  fs::remove(path);
}

TEST(JournalFaults, WriterLatchesAfterFailure) {
  const std::string path = tempPath("chaos.latch");
  fs::remove(path);
  FaultPlan plan(parsePlan("disk-full:site=farm.journal,times=1"), 3);
  farm::JournalWriter w;
  w.open(path, 1, 4, false);
  experiment::RunObservation obs;
  obs.runIndex = 0;
  obs.status = "completed";
  {
    core::FaultScope scope(&plan);
    EXPECT_THROW(w.append(obs), std::runtime_error);
    // Latched: later appends refuse instead of writing past the failure.
    EXPECT_THROW(w.append(obs), std::runtime_error);
  }
  w.close();  // must not throw despite the latched failure
  fs::remove(path);
}

// --- atomic file faults ------------------------------------------------------

TEST(AtomicFileFaults, FailedWriteLeavesTargetAndNoTemps) {
  const std::string path = tempPath("chaos.atomic");
  core::atomicWriteFile(path, "original", true);
  FaultPlan plan(parsePlan("disk-full:site=core.atomic_file,times=1"), 3);
  {
    core::FaultScope scope(&plan);
    EXPECT_THROW(core::atomicWriteFile(path, "clobbered", true),
                 std::runtime_error);
  }
  EXPECT_EQ(readFile(path), "original");
  // The temporary sibling was cleaned up.
  for (const auto& e : fs::directory_iterator(fs::temp_directory_path())) {
    EXPECT_EQ(e.path().string().find(path + ".tmp."), std::string::npos);
  }
  // Short writes take the same atomicity path.
  FaultPlan shortPlan(
      parsePlan("disk-short:site=core.atomic_file,bytes=3,prob=1,times=1"),
      3);
  {
    core::FaultScope scope(&shortPlan);
    EXPECT_THROW(core::atomicWriteFile(path, "clobbered", true),
                 std::runtime_error);
  }
  EXPECT_EQ(readFile(path), "original");
  fs::remove(path);
}

// --- coordinator degraded mode + option validation ---------------------------

TEST(FleetDegraded, AbortsInsteadOfHangingWithoutWorkers) {
  experiment::ExperimentSpec spec = accountSpec(8);
  fleet::FleetOptions fl;
  fl.listen = "127.0.0.1:0";
  fl.noProgressTimeout = std::chrono::milliseconds(300);
  const auto t0 = std::chrono::steady_clock::now();
  farm::ExperimentCampaign ec = fleet::runExperimentFleet(spec, fl);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  ASSERT_FALSE(ec.campaign.abortDiagnostic.empty());
  EXPECT_NE(ec.campaign.abortDiagnostic.find("degraded"), std::string::npos);
  EXPECT_NE(ec.campaign.abortDiagnostic.find("resumable"), std::string::npos);
  EXPECT_TRUE(ec.campaign.stoppedEarly);
}

TEST(FleetOptionsValidation, HeartbeatMustFitInsideLeaseTimeout) {
  experiment::ExperimentSpec spec = accountSpec(4);
  fleet::FleetOptions fl;
  fl.listen = "127.0.0.1:0";
  fl.heartbeatInterval = std::chrono::milliseconds(500);
  fl.leaseTimeout = std::chrono::milliseconds(500);
  EXPECT_THROW(
      {
        try {
          fleet::runExperimentFleet(spec, fl);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("--heartbeat-ms"),
                    std::string::npos);
          throw;
        }
      },
      std::runtime_error);
  fl.heartbeatInterval = std::chrono::milliseconds(0);
  EXPECT_THROW(fleet::runExperimentFleet(spec, fl), std::runtime_error);
}

// --- end-to-end chaos campaigns ----------------------------------------------

TEST(ChaosCampaign, RecoversUnderPartialFrames) {
  ChaosOptions co;
  co.plan = "partial";
  co.seed = 2;
  co.wallCap = std::chrono::milliseconds(120000);
  ChaosReport r = runChaosCampaign(accountSpec(24), co);
  EXPECT_EQ(r.verdict, ChaosVerdict::Recovered) << r.diagnostic;
  EXPECT_TRUE(r.passed());
  EXPECT_GT(r.faults.triggers, 0u);
  EXPECT_EQ(r.delivered, 24u);
}

TEST(ChaosCampaign, DegradedResumableUnderDiskFull) {
  ChaosOptions co;
  co.plan = "disk-full";
  co.seed = 2;
  co.wallCap = std::chrono::milliseconds(120000);
  // Enough runs that the journal passes the preset's 4 KiB arming point.
  ChaosReport r = runChaosCampaign(accountSpec(80), co);
  EXPECT_EQ(r.verdict, ChaosVerdict::DegradedResumable) << r.diagnostic;
  EXPECT_TRUE(r.passed());
  EXPECT_TRUE(r.resumedToBaseline);
  EXPECT_NE(r.diagnostic.find("journal"), std::string::npos);
}

TEST(ChaosCampaign, RejectsBadPlanBeforeRunningAnything) {
  ChaosOptions co;
  co.plan = "tornado";
  EXPECT_THROW(runChaosCampaign(accountSpec(4), co), std::runtime_error);
}

}  // namespace
}  // namespace mtt::chaos
