// Tests for mtt::fleet — the distributed campaign coordinator/worker
// service: wire-protocol totality (byte-prefix truncation fuzz), spec and
// lease codecs, deterministic fleet/serial byte-identity, duplicate-record
// suppression, and lease reassignment + quarantine after a worker dies
// mid-campaign.
#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "experiment/experiment.hpp"
#include "farm/farm.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/guide_runner.hpp"
#include "fleet/net.hpp"
#include "fleet/protocol.hpp"
#include "fleet/worker.hpp"
#include "guide/guide.hpp"

namespace mtt::fleet {
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

// --- frame layer -----------------------------------------------------------

TEST(FleetFrame, RoundTripsEveryType) {
  const FrameType types[] = {FrameType::Hello,     FrameType::Spec,
                             FrameType::Lease,     FrameType::Record,
                             FrameType::LeaseDone, FrameType::Heartbeat,
                             FrameType::Quit,      FrameType::Error};
  for (FrameType t : types) {
    const std::string payload = "pay\tload\nwith\\bytes\x01";
    ParseResult r = tryParseFrame(encodeFrame(t, payload));
    ASSERT_EQ(r.status, ParseStatus::Ok);
    EXPECT_EQ(r.frame.type, t);
    EXPECT_EQ(r.frame.payload, payload);
    EXPECT_EQ(r.consumed, 4 + 1 + payload.size());
  }
}

TEST(FleetFrame, EveryBytePrefixNeedsMoreOrParses) {
  // A realistic multi-frame stream: every strict prefix must yield NeedMore
  // or a complete leading frame — never Corrupt, never a crash.
  std::string stream = encodeFrame(FrameType::Hello, encodeHello());
  stream += encodeFrame(FrameType::Heartbeat, "");
  LeasePayload lease;
  lease.leaseId = 3;
  lease.runs.push_back(RunAssignment{9, 16, "mixed", 0.25, "pct:d=2"});
  stream += encodeFrame(FrameType::Lease, encodeLease(lease));
  for (std::size_t n = 0; n < stream.size(); ++n) {
    ParseResult r = tryParseFrame(stream.substr(0, n));
    EXPECT_NE(r.status, ParseStatus::Corrupt) << "prefix length " << n;
    if (r.status == ParseStatus::Ok) {
      EXPECT_LE(r.consumed, n) << "prefix length " << n;
      EXPECT_GT(r.consumed, 0u) << "prefix length " << n;
    }
  }
  // The full stream drains to exactly three frames.
  std::size_t frames = 0;
  while (!stream.empty()) {
    ParseResult r = tryParseFrame(stream);
    ASSERT_EQ(r.status, ParseStatus::Ok);
    stream.erase(0, r.consumed);
    ++frames;
  }
  EXPECT_EQ(frames, 3u);
}

TEST(FleetFrame, CorruptionIsDiagnosedNotFatal) {
  // Zero length: no room for the type byte.
  std::string zero(4, '\0');
  ParseResult r = tryParseFrame(zero);
  EXPECT_EQ(r.status, ParseStatus::Corrupt);
  EXPECT_NE(r.error.find("zero length"), std::string::npos);

  // Absurd length: diagnosed before any payload arrives.
  std::string huge = "\xff\xff\xff\xff";
  r = tryParseFrame(huge);
  EXPECT_EQ(r.status, ParseStatus::Corrupt);
  EXPECT_NE(r.error.find("exceeds"), std::string::npos);

  // Unknown type byte: diagnosed as soon as it is visible, even though the
  // (large) payload has not arrived yet.
  std::string badType = encodeFrame(FrameType::Hello, std::string(1000, 'x'));
  badType[4] = 'z';
  r = tryParseFrame(badType.substr(0, 16));
  EXPECT_EQ(r.status, ParseStatus::Corrupt);
  EXPECT_NE(r.error.find("unknown fleet frame type"), std::string::npos);
}

// --- payload codecs --------------------------------------------------------

TEST(FleetSpec, RoundTripsTheFullToolConfig) {
  experiment::ExperimentSpec spec = accountSpec(10);
  spec.tool.detectors = {"lockset", "vector-clock"};
  spec.tool.noiseTargets = {"lock:a", "var\twith\ttabs"};
  spec.tool.lockGraph = true;
  spec.tool.coverage = "switch-pair";
  spec.tool.coverageClosedUniverse = true;
  spec.seedBase = 99;
  rt::RunOptions ro;
  ro.maxSteps = 12345;
  ro.blockTimeout = std::chrono::milliseconds(777);
  ro.dispatchTiming = true;
  spec.runOptions = ro;

  experiment::RunSpec back;
  std::string err;
  ASSERT_TRUE(decodeSpec(encodeSpec(spec), back, err)) << err;
  EXPECT_EQ(back.programName, spec.programName);
  EXPECT_EQ(back.tool.mode, spec.tool.mode);
  EXPECT_EQ(back.tool.policy, spec.tool.policy);
  EXPECT_EQ(back.tool.noiseName, spec.tool.noiseName);
  EXPECT_DOUBLE_EQ(back.tool.noiseOpts.strength, spec.tool.noiseOpts.strength);
  EXPECT_EQ(back.tool.noiseTargets, spec.tool.noiseTargets);
  EXPECT_EQ(back.tool.detectors, spec.tool.detectors);
  EXPECT_EQ(back.tool.lockGraph, spec.tool.lockGraph);
  EXPECT_EQ(back.tool.coverage, spec.tool.coverage);
  EXPECT_EQ(back.tool.coverageClosedUniverse, spec.tool.coverageClosedUniverse);
  EXPECT_EQ(back.seedBase, spec.seedBase);
  ASSERT_TRUE(back.runOptions.has_value());
  EXPECT_EQ(back.runOptions->maxSteps, 12345u);
  EXPECT_EQ(back.runOptions->blockTimeout.count(), 777);
  EXPECT_TRUE(back.runOptions->dispatchTiming);

  // The label (the campaign identity the journal digests) survives the
  // wire, which is what makes farm and fleet journals interchangeable.
  EXPECT_EQ(back.tool.label(), spec.tool.label());
}

TEST(FleetSpec, TruncatedAndMangledPayloadsAreRejectedWithDiagnostics) {
  const std::string full = encodeSpec(accountSpec(5));
  experiment::RunSpec out;
  std::string err;
  for (std::size_t n = 0; n < full.size(); ++n) {
    err.clear();
    const std::string prefix = full.substr(0, n);
    if (decodeSpec(prefix, out, err)) {
      // A prefix that happens to end on a line boundary after "program" is
      // a smaller-but-valid spec; anything else must carry a diagnostic.
      continue;
    }
    EXPECT_FALSE(err.empty()) << "prefix length " << n;
  }
  EXPECT_FALSE(decodeSpec("MTTSPEC 1\nbogus-key\tv\n", out, err));
  EXPECT_NE(err.find("unknown key"), std::string::npos);
  EXPECT_FALSE(decodeSpec("MTTSPEC 1\nstrength\tnot-a-number\n", out, err));
  EXPECT_NE(err.find("malformed value"), std::string::npos);
  EXPECT_FALSE(decodeSpec("MTTSPEC 1\n", out, err));
  EXPECT_NE(err.find("no program"), std::string::npos);
}

TEST(FleetLease, RoundTripsAndRejectsTruncation) {
  LeasePayload lease;
  lease.leaseId = 42;
  lease.runs.push_back(RunAssignment{0, 7, "", 0.0, ""});
  lease.runs.push_back(RunAssignment{5, 12, "noise\twith\ttabs", 0.625, ""});
  lease.runs.push_back(RunAssignment{6, 13, "yield", 0.5, "pct:d=3,k=128"});

  LeasePayload back;
  std::string err;
  const std::string full = encodeLease(lease);
  ASSERT_TRUE(decodeLease(full, back, err)) << err;
  EXPECT_EQ(back.leaseId, 42u);
  ASSERT_EQ(back.runs.size(), 3u);
  EXPECT_EQ(back.runs[0].index, 0u);
  EXPECT_EQ(back.runs[0].seed, 7u);
  EXPECT_TRUE(back.runs[0].noiseName.empty());
  EXPECT_EQ(back.runs[1].index, 5u);
  EXPECT_EQ(back.runs[1].noiseName, "noise\twith\ttabs");
  EXPECT_DOUBLE_EQ(back.runs[1].strength, 0.625);
  EXPECT_TRUE(back.runs[1].policy.empty());
  EXPECT_EQ(back.runs[2].policy, "pct:d=3,k=128");

  // Policy-less assignments stay on the four-field version-1 wire form, and
  // four-field lines decode to an empty policy — mixed fleets interoperate.
  EXPECT_EQ(encodeLease(lease).find("pct"), full.find("pct"));
  LeasePayload v1;
  ASSERT_TRUE(decodeLease("9\n3\t17\tmixed\t0.25\n", v1, err)) << err;
  ASSERT_EQ(v1.runs.size(), 1u);
  EXPECT_TRUE(v1.runs[0].policy.empty());

  for (std::size_t n = 0; n < full.size(); ++n) {
    err.clear();
    // Totality: every truncation decodes to a shorter valid lease (cut on
    // a line boundary) or fails with a diagnostic; never a crash.
    if (!decodeLease(full.substr(0, n), back, err)) {
      EXPECT_FALSE(err.empty()) << "prefix length " << n;
    }
  }
}

TEST(FleetRecord, RoundTripsTheObservation) {
  experiment::RunObservation o;
  o.runIndex = 31337;
  o.seed = 99;
  o.status = "completed";
  o.outcome = "ok\twith\nescapes\\";
  o.wallSeconds = 0.25;
  const std::string payload = encodeRecord(7, o);
  std::uint64_t leaseId = 0;
  experiment::RunObservation back;
  std::string err;
  ASSERT_TRUE(decodeRecord(payload, leaseId, back, err)) << err;
  EXPECT_EQ(leaseId, 7u);
  EXPECT_EQ(back.runIndex, o.runIndex);
  EXPECT_EQ(back.outcome, o.outcome);

  for (std::size_t n = 0; n < payload.size(); ++n) {
    err.clear();
    if (!decodeRecord(payload.substr(0, n), leaseId, back, err)) {
      EXPECT_FALSE(err.empty()) << "prefix length " << n;
    }
  }

  std::uint64_t done = 0;
  ASSERT_TRUE(decodeLeaseDone(encodeLeaseDone(12), done, err));
  EXPECT_EQ(done, 12u);
  EXPECT_FALSE(decodeLeaseDone("not-a-number", done, err));
}

// --- fleet/serial byte-identity -------------------------------------------

TEST(FleetEquivalence, TwoWorkerCampaignMatchesJobs1Bitwise) {
  const std::string sock = tempPath("fleet-eq.sock");
  const std::string farmJournal = tempPath("fleet-eq-farm.journal");
  const std::string fleetJournal = tempPath("fleet-eq-fleet.journal");
  fs::remove(farmJournal);
  fs::remove(fleetJournal);

  experiment::ExperimentSpec spec = accountSpec(60);

  farm::FarmOptions serial;
  serial.jobs = 1;
  serial.scrubTiming = true;
  serial.journalPath = farmJournal;
  farm::ExperimentCampaign baseline = farm::runExperimentFarm(spec, serial);

  FleetOptions fl;
  fl.listen = "unix:" + sock;
  fl.leaseSize = 7;  // deliberately not a divisor of 60
  // Both workers join before the first lease: the campaign takes about a
  // millisecond, and a worker that arrives after it ends never connects.
  fl.minWorkers = 2;
  fl.farm.scrubTiming = true;
  fl.farm.journalPath = fleetJournal;

  std::vector<std::thread> workers;
  for (int i = 0; i < 2; ++i) {
    workers.emplace_back([&sock] {
      WorkerOptions wo;
      wo.connect = "unix:" + sock;
      runWorker(wo);
    });
  }
  farm::ExperimentCampaign fleetRun = runExperimentFleet(spec, fl);
  for (auto& w : workers) w.join();

  experiment::ReportOptions ro;
  ro.timing = false;
  EXPECT_EQ(experiment::findRateReport("t", {baseline.result}, ro),
            experiment::findRateReport("t", {fleetRun.result}, ro));
  ASSERT_EQ(fleetRun.campaign.records.size(), 60u);
  for (std::size_t i = 0; i < 60; ++i) {
    EXPECT_EQ(fleetRun.campaign.records[i].runIndex, i);
    EXPECT_EQ(fleetRun.campaign.records[i].seed,
              baseline.campaign.records[i].seed);
  }
  // The strongest claim: the journal files are byte-identical, so a fleet
  // campaign can be resumed by a farm and vice versa.
  const std::string a = readFile(farmJournal);
  const std::string b = readFile(fleetJournal);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_EQ(lastFleetCounters().workersConnected, 2u);
  fs::remove(farmJournal);
  fs::remove(fleetJournal);
  fs::remove(sock);
}

TEST(FleetEquivalence, WeakMemoryCampaignMatchesJobs1Bitwise) {
  // Same byte-identity claim over a weak-memory program: the schedules the
  // workers record carry StorePick decisions, and the merged campaign must
  // still be bit-identical to a serial --jobs 1 farm.
  const std::string sock = tempPath("fleet-mem.sock");
  const std::string farmJournal = tempPath("fleet-mem-farm.journal");
  const std::string fleetJournal = tempPath("fleet-mem-fleet.journal");
  fs::remove(farmJournal);
  fs::remove(fleetJournal);

  experiment::ExperimentSpec spec;
  spec.programName = "mp_reorder";
  spec.runs = 40;
  spec.seedBase = 1;
  spec.tool.policy = "random";  // random store picks exercise the weak model

  farm::FarmOptions serial;
  serial.jobs = 1;
  serial.scrubTiming = true;
  serial.journalPath = farmJournal;
  farm::ExperimentCampaign baseline = farm::runExperimentFarm(spec, serial);

  FleetOptions fl;
  fl.listen = "unix:" + sock;
  fl.leaseSize = 7;
  fl.minWorkers = 2;
  fl.farm.scrubTiming = true;
  fl.farm.journalPath = fleetJournal;

  std::vector<std::thread> workers;
  for (int i = 0; i < 2; ++i) {
    workers.emplace_back([&sock] {
      WorkerOptions wo;
      wo.connect = "unix:" + sock;
      runWorker(wo);
    });
  }
  farm::ExperimentCampaign fleetRun = runExperimentFleet(spec, fl);
  for (auto& w : workers) w.join();

  // The weak bug actually manifested somewhere in the campaign (otherwise
  // this equivalence test would be vacuous).
  EXPECT_GT(baseline.result.manifested.successes, 0u);

  const std::string a = readFile(farmJournal);
  const std::string b = readFile(fleetJournal);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  fs::remove(farmJournal);
  fs::remove(fleetJournal);
  fs::remove(sock);
}

TEST(FleetEquivalence, GuidedCampaignMatchesInProcessGuide) {
  const std::string sock = tempPath("fleet-guide.sock");

  experiment::RunSpec base;
  base.programName = "account";
  base.seedBase = 3;
  base.tool.policy = "rr";
  base.tool.coverage = "switch-pair";  // pin: the spec crosses the wire

  guide::GuideOptions go;
  go.budget = 48;
  go.heuristics = {"yield", "mixed"};
  go.strengths = {0.2, 0.5};
  go.farm.jobs = 4;  // fixes the batch width == the decision sequence
  guide::GuideResult local = guide::runGuided(base, go);

  FleetOptions fl;
  fl.listen = "unix:" + sock;
  fl.leaseSize = 3;
  fl.minWorkers = 2;
  Coordinator coordinator(base, fl);
  std::vector<std::thread> workers;
  for (int i = 0; i < 2; ++i) {
    workers.emplace_back([&sock] {
      WorkerOptions wo;
      wo.connect = "unix:" + sock;
      runWorker(wo);
    });
  }
  guide::GuideOptions fleetGo = go;
  fleetGo.batchRunner = makeGuideBatchRunner(coordinator, false);
  guide::GuideResult remote = guide::runGuided(base, fleetGo);
  coordinator.shutdown();
  for (auto& w : workers) w.join();

  EXPECT_EQ(guide::guideReport(local, false), guide::guideReport(remote, false));
  EXPECT_EQ(local.records.size(), remote.records.size());
  fs::remove(sock);
}

TEST(FleetEquivalence, PolicyArmedGuidedCampaignMatchesInProcessGuide) {
  // The policy arm dimension crosses the wire as the optional fifth lease
  // field; the folded campaign must stay byte-identical to the in-process
  // guide for the same options.
  const std::string sock = tempPath("fleet-guide-policy.sock");

  experiment::RunSpec base;
  base.programName = "account";
  base.seedBase = 3;
  base.tool.policy = "rr";
  base.tool.coverage = "switch-pair";  // pin: the spec crosses the wire

  guide::GuideOptions go;
  go.budget = 48;
  go.heuristics = {"yield"};
  go.strengths = {0.2, 0.5};
  go.policies = {"", "pct:d=2", "pos"};  // 6 arms: policy x strength
  go.farm.jobs = 4;  // fixes the batch width == the decision sequence
  guide::GuideResult local = guide::runGuided(base, go);

  FleetOptions fl;
  fl.listen = "unix:" + sock;
  fl.leaseSize = 3;
  fl.minWorkers = 2;
  Coordinator coordinator(base, fl);
  std::vector<std::thread> workers;
  for (int i = 0; i < 2; ++i) {
    workers.emplace_back([&sock] {
      WorkerOptions wo;
      wo.connect = "unix:" + sock;
      runWorker(wo);
    });
  }
  guide::GuideOptions fleetGo = go;
  fleetGo.batchRunner = makeGuideBatchRunner(coordinator, false);
  guide::GuideResult remote = guide::runGuided(base, fleetGo);
  coordinator.shutdown();
  for (auto& w : workers) w.join();

  EXPECT_EQ(guide::guideReport(local, false), guide::guideReport(remote, false));
  EXPECT_EQ(local.records.size(), remote.records.size());
  // The policy prefix is visible in the arm labels of both reports.
  EXPECT_NE(guide::guideReport(local, false).find("pct:d=2/yield@0.2"),
            std::string::npos);
  EXPECT_NE(guide::guideReport(local, false).find("pos/yield@0.5"),
            std::string::npos);
  fs::remove(sock);
}

TEST(FleetGuide, MutationArmsAreRejectedWithBatchRunner) {
  experiment::RunSpec base;
  base.programName = "account";
  guide::GuideOptions go;
  go.batchRunner = [](const std::vector<guide::GuideBatchRun>&) {
    return guide::GuideBatchOutcome{};
  };
  // buildArms only makes witness arms from a corpus; an empty corpus dir
  // yields no mutation arms, so the combination must still be accepted.
  go.corpusDir = tempPath("fleet-empty-corpus");
  fs::create_directories(go.corpusDir);
  go.budget = 4;
  EXPECT_NO_THROW({ guide::runGuided(base, go); });
  fs::remove_all(go.corpusDir);
}

// --- robustness ------------------------------------------------------------

TEST(FleetRobustness, DuplicateAndReorderedRecordsAreFoldedOnce) {
  const std::string sock = tempPath("fleet-dup.sock");
  experiment::ExperimentSpec spec = accountSpec(4);

  FleetOptions fl;
  fl.listen = "unix:" + sock;
  fl.leaseSize = 4;
  Coordinator coordinator(static_cast<const experiment::RunSpec&>(spec), fl);

  // A scripted worker that answers the handshake, then streams its lease's
  // records in REVERSE order with the first reply duplicated — the slow-
  // worker-after-reassignment wire pattern, compressed into one client.
  std::thread client([&sock] {
    Socket s = connectTo(parseAddress("unix:" + sock),
                         std::chrono::milliseconds(5000));
    std::string err;
    ASSERT_TRUE(sendAll(s.fd(), encodeFrame(FrameType::Hello, encodeHello()),
                        err));
    std::string rx;
    LeasePayload lease;
    bool haveLease = false;
    while (!haveLease) {
      char buf[4096];
      const ssize_t n = ::recv(s.fd(), buf, sizeof buf, 0);
      if (n <= 0) {
        ADD_FAILURE() << "coordinator closed before granting a lease";
        return;
      }
      rx.append(buf, static_cast<std::size_t>(n));
      for (;;) {
        ParseResult r = tryParseFrame(rx);
        if (r.status != ParseStatus::Ok) break;
        rx.erase(0, r.consumed);
        if (r.frame.type == FrameType::Lease) {
          ASSERT_TRUE(decodeLease(r.frame.payload, lease, err)) << err;
          haveLease = true;
          break;
        }
      }
    }
    std::string out;
    for (std::size_t i = lease.runs.size(); i-- > 0;) {
      experiment::RunObservation o;
      o.runIndex = lease.runs[i].index;
      o.seed = lease.runs[i].seed;
      o.status = "completed";
      o.outcome = "scripted";
      const std::string frame =
          encodeFrame(FrameType::Record, encodeRecord(lease.leaseId, o));
      out += frame;
      if (i == lease.runs.size() - 1) out += frame;  // the duplicate
    }
    out += encodeFrame(FrameType::LeaseDone, encodeLeaseDone(lease.leaseId));
    ASSERT_TRUE(sendAll(s.fd(), out, err));
    // Drain until the coordinator closes (QUIT or EOF).
    for (;;) {
      char buf[4096];
      const ssize_t n = ::recv(s.fd(), buf, sizeof buf, 0);
      if (n <= 0) break;
    }
  });

  std::vector<RunAssignment> runs;
  for (std::uint64_t i = 0; i < spec.runs; ++i) {
    runs.push_back(RunAssignment{i, spec.seedBase + i, "", 0.0, ""});
  }
  Coordinator::BatchResult br = coordinator.runBatch(runs);
  coordinator.shutdown();
  client.join();

  ASSERT_EQ(br.records.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(br.records.count(i));
    EXPECT_EQ(br.records.at(i).outcome, "scripted");
  }
  EXPECT_GE(coordinator.counters().duplicatesDropped, 1u);
  fs::remove(sock);
}

TEST(FleetRobustness, KilledWorkerLeasesAreReassignedAndQuarantined) {
  const std::string sock = tempPath("fleet-kill.sock");
  experiment::ExperimentSpec spec = accountSpec(48);

  FleetOptions fl;
  fl.listen = "unix:" + sock;
  fl.leaseSize = 6;
  fl.maxLeasesPerWorker = 2;
  fl.leaseTimeout = std::chrono::milliseconds(1500);
  Coordinator coordinator(static_cast<const experiment::RunSpec&>(spec), fl);

  // A real forked worker process: SIGSTOPping it mid-campaign models a hung
  // machine (no EOF — only the lease timeout can reclaim its work).
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    try {
      WorkerOptions wo;
      wo.connect = "unix:" + sock;
      runWorker(wo);
    } catch (...) {
    }
    ::_exit(0);
  }

  std::thread rescue;
  std::atomic<bool> stopped{false};
  Coordinator::RecordSink sink = [&](const experiment::RunObservation&,
                                     std::size_t) {
    if (stopped.exchange(true)) return;
    // First record: the child provably holds a lease.  Hang it, then bring
    // up a healthy worker to absorb the reassigned leases.
    ::kill(child, SIGSTOP);
    rescue = std::thread([&sock] {
      WorkerOptions wo;
      wo.connect = "unix:" + sock;
      runWorker(wo);
    });
  };

  std::vector<RunAssignment> runs;
  for (std::uint64_t i = 0; i < spec.runs; ++i) {
    runs.push_back(RunAssignment{i, spec.seedBase + i, "", 0.0, ""});
  }
  Coordinator::BatchResult br = coordinator.runBatch(runs, sink);
  coordinator.shutdown();
  if (rescue.joinable()) rescue.join();
  ::kill(child, SIGKILL);
  int status = 0;
  ::waitpid(child, &status, 0);

  // Every index present exactly once — nothing lost, nothing double-folded.
  ASSERT_EQ(br.records.size(), 48u);
  for (std::uint64_t i = 0; i < 48; ++i) {
    ASSERT_TRUE(br.records.count(i)) << "index " << i;
    EXPECT_EQ(br.records.at(i).seed, spec.seedBase + i);
    EXPECT_FALSE(br.records.at(i).status.empty());
  }
  EXPECT_FALSE(br.stoppedEarly);
  EXPECT_GE(coordinator.counters().leasesReassigned, 1u);
  EXPECT_GE(coordinator.counters().workersQuarantined, 1u);
  fs::remove(sock);
}

TEST(FleetNet, AddressGrammarIsValidated) {
  Address a = parseAddress("unix:/tmp/x.sock");
  EXPECT_TRUE(a.isUnix);
  EXPECT_EQ(a.path, "/tmp/x.sock");
  a = parseAddress("127.0.0.1:8080");
  EXPECT_FALSE(a.isUnix);
  EXPECT_EQ(a.host, "127.0.0.1");
  EXPECT_EQ(a.port, 8080);
  EXPECT_EQ(to_string(a), "127.0.0.1:8080");
  EXPECT_THROW(parseAddress("unix:"), std::runtime_error);
  EXPECT_THROW(parseAddress("no-port"), std::runtime_error);
  EXPECT_THROW(parseAddress("host:not-a-port"), std::runtime_error);
  EXPECT_THROW(parseAddress("host:99999"), std::runtime_error);
}

}  // namespace
}  // namespace mtt::fleet
