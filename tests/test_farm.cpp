// Tests for mtt::farm — the parallel, fault-isolated campaign engine:
// deterministic serial/sharded equivalence, watchdog timeouts, forked-worker
// crash containment, retry-with-backoff, JSONL streaming, and the new
// stats merge operations it builds on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/stats.hpp"
#include "core/wire.hpp"
#include "farm/farm.hpp"
#include "farm/journal.hpp"
#include "replay/replay.hpp"

namespace mtt::farm {
namespace {

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

// --- stats merge -----------------------------------------------------------

TEST(StatsMerge, OnlineStatsMatchesSequential) {
  OnlineStats whole, a, b;
  for (int i = 0; i < 100; ++i) {
    double x = std::sin(i) * 10.0 + i * 0.25;
    whole.add(x);
    (i < 37 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(StatsMerge, OnlineStatsEmptySides) {
  OnlineStats a, b, empty;
  a.add(1.0);
  a.add(3.0);
  b.merge(a);  // empty.merge(nonempty) adopts
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
  a.merge(empty);  // nonempty.merge(empty) is a no-op
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(StatsMerge, ProportionAndOutcomeDistribution) {
  Proportion p1, p2;
  p1.add(true);
  p1.add(false);
  p2.add(true);
  p1.merge(p2);
  EXPECT_EQ(p1.successes, 2u);
  EXPECT_EQ(p1.trials, 3u);

  OutcomeDistribution d1, d2;
  d1.add("x");
  d1.add("y");
  d2.add("x");
  d2.add("z");
  d1.merge(d2);
  EXPECT_EQ(d1.total(), 4u);
  EXPECT_EQ(d1.counts().at("x"), 2u);
  EXPECT_EQ(d1.distinct(), 3u);
}

TEST(StatsMerge, ExperimentResultMerge) {
  auto spec = accountSpec(30);
  experiment::ExperimentResult whole = experiment::runExperiment(spec);

  experiment::ExperimentSpec left = spec, right = spec;
  left.runs = 12;
  right.runs = 18;
  right.seedBase = spec.seedBase + 12;
  experiment::ExperimentResult merged = experiment::runExperiment(left);
  experiment::mergeInto(merged, experiment::runExperiment(right));

  EXPECT_EQ(merged.runs, whole.runs);
  EXPECT_EQ(merged.manifested.successes, whole.manifested.successes);
  EXPECT_EQ(merged.manifested.trials, whole.manifested.trials);
  EXPECT_EQ(merged.outcomes.counts(), whole.outcomes.counts());
  EXPECT_EQ(merged.statusCounts, whole.statusCounts);
  EXPECT_EQ(merged.noiseInjections, whole.noiseInjections);
  EXPECT_NEAR(merged.events.mean(), whole.events.mean(), 1e-9);
}

// --- record serialization --------------------------------------------------

TEST(RecordIo, PipeRecordRoundTrips) {
  experiment::RunObservation o;
  o.runIndex = 42;
  o.seed = 1234567890123ull;
  o.status = "assert-failed";
  o.manifested = true;
  o.hasDetectors = true;
  o.detectorHit = true;
  o.warnings = 3;
  o.trueWarnings = 2;
  o.falseWarnings = 1;
  o.deadlockPotentials = 9;
  o.wallSeconds = 0.123456789012345678;
  o.events = 987654;
  o.noiseInjections = 55;
  o.outcome = "weird\toutcome\nwith\\escapes";
  o.failureMessage = "assert: x == y\tfailed";
  o.attempts = 3;

  experiment::RunObservation back;
  ASSERT_TRUE(decodePipeRecord(encodePipeRecord(o), back));
  EXPECT_EQ(back.runIndex, o.runIndex);
  EXPECT_EQ(back.seed, o.seed);
  EXPECT_EQ(back.status, o.status);
  EXPECT_EQ(back.manifested, o.manifested);
  EXPECT_EQ(back.hasDetectors, o.hasDetectors);
  EXPECT_EQ(back.detectorHit, o.detectorHit);
  EXPECT_EQ(back.warnings, o.warnings);
  EXPECT_EQ(back.deadlockPotentials, o.deadlockPotentials);
  EXPECT_DOUBLE_EQ(back.wallSeconds, o.wallSeconds);  // %.17g round-trip
  EXPECT_EQ(back.events, o.events);
  EXPECT_EQ(back.outcome, o.outcome);
  EXPECT_EQ(back.failureMessage, o.failureMessage);
  EXPECT_EQ(back.attempts, o.attempts);
}

TEST(RecordIo, DecodeRejectsGarbage) {
  experiment::RunObservation o;
  EXPECT_FALSE(decodePipeRecord("not a record", o));
  EXPECT_FALSE(decodePipeRecord("", o));
  // Strict fields: every numeric field is one whole decimal token and every
  // flag is 0 or 1, so a mangled record is rejected, not half-read.
  const std::string good = encodePipeRecord(o);
  ASSERT_TRUE(decodePipeRecord(good, o));
  auto withField = [&good](std::size_t index, const std::string& value) {
    std::vector<std::string> f;
    for (std::string_view v : wire::splitFields(good)) f.emplace_back(v);
    f[index] = value;
    std::string line;
    for (std::size_t i = 0; i < f.size(); ++i) {
      line += (i == 0 ? "" : "\t") + f[i];
    }
    return line;
  };
  for (const char* bad : {"12abc", "-1", " 7"}) {
    EXPECT_FALSE(decodePipeRecord(withField(0, bad), o)) << bad;   // index
    EXPECT_FALSE(decodePipeRecord(withField(6, bad), o)) << bad;   // warnings
    EXPECT_FALSE(decodePipeRecord(withField(15, bad), o)) << bad;  // attempts
  }
  EXPECT_FALSE(decodePipeRecord(withField(3, "2"), o));  // manifested flag
}

TEST(RecordIo, EscapeHelpersRoundTripSeparatorBytes) {
  // The shared codec (worker pipe, journal, fleet frames) must round-trip
  // every byte that doubles as a record separator.
  const std::string nasty[] = {
      "",
      "plain",
      "tab\tnewline\nreturn\rbackslash\\",
      "\\t is not a tab",
      "\t\n\r\\\t\n\r\\",
      std::string("embedded\0nul", 12),
  };
  auto unescape = [](std::string_view field) {
    std::string out;
    EXPECT_TRUE(wire::unescapeField(field, out)) << field;
    return out;
  };
  for (const std::string& s : nasty) {
    std::string enc;
    wire::appendEscapedField(enc, s);
    EXPECT_EQ(enc.find('\t'), std::string::npos);
    EXPECT_EQ(enc.find('\n'), std::string::npos);
    EXPECT_EQ(unescape(enc), s);
  }
  // Escaped fields split cleanly even when the raw values contain tabs.
  std::string joined;
  wire::appendEscapedField(joined, "a\tb");
  joined += '\t';
  wire::appendEscapedField(joined, "c\nd");
  std::vector<std::string_view> fields = wire::splitFields(joined);
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(unescape(fields[0]), "a\tb");
  EXPECT_EQ(unescape(fields[1]), "c\nd");
}

TEST(RecordIo, EveryBytePrefixDecodesOrRejectsCleanly) {
  experiment::RunObservation o;
  o.runIndex = 7;
  o.seed = 123;
  o.status = "completed";
  o.outcome = "tab\tand\nnewline";
  o.failureMessage = "back\\slash";
  o.wallSeconds = 0.5;
  const std::string full = encodePipeRecord(o);
  experiment::RunObservation back;
  ASSERT_TRUE(decodePipeRecord(full, back));
  // Totality under truncation: a crashed worker can cut the pipe at any
  // byte; decode must return false (or a valid shorter parse), never crash.
  for (std::size_t n = 0; n < full.size(); ++n) {
    experiment::RunObservation scratch;
    (void)decodePipeRecord(full.substr(0, n), scratch);
  }
}

TEST(RecordIo, JsonHasTheDocumentedFields) {
  experiment::RunObservation o;
  o.runIndex = 5;
  o.seed = 12;
  o.status = "completed";
  o.outcome = "he said \"hi\"";
  std::string j = toJson(o);
  EXPECT_NE(j.find("\"run\":5"), std::string::npos);
  EXPECT_NE(j.find("\"seed\":12"), std::string::npos);
  EXPECT_NE(j.find("\"status\":\"completed\""), std::string::npos);
  EXPECT_NE(j.find("\\\"hi\\\""), std::string::npos);
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
}

// --- deterministic equivalence --------------------------------------------

TEST(FarmEquivalence, ShardedCampaignMatchesSerialBitwise) {
  auto spec = accountSpec(48);
  experiment::ExperimentResult serial = experiment::runExperiment(spec);

  for (std::size_t jobs : {1u, 4u, 8u}) {
    FarmOptions fo;
    fo.jobs = jobs;
    ExperimentCampaign ec = runExperimentFarm(spec, fo);
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    EXPECT_EQ(ec.result.runs, serial.runs);
    EXPECT_EQ(ec.result.manifested.successes, serial.manifested.successes);
    EXPECT_EQ(ec.result.manifested.trials, serial.manifested.trials);
    EXPECT_EQ(ec.result.outcomes.counts(), serial.outcomes.counts());
    EXPECT_EQ(ec.result.statusCounts, serial.statusCounts);
    EXPECT_EQ(ec.result.noiseInjections, serial.noiseInjections);
    // Records fold in run order, so even the float accumulators are
    // bitwise identical to the serial path.
    EXPECT_EQ(ec.result.events.mean(), serial.events.mean());
    EXPECT_EQ(ec.result.events.variance(), serial.events.variance());

    experiment::ReportOptions ro;
    ro.timing = false;
    EXPECT_EQ(experiment::findRateReport("t", {ec.result}, ro),
              experiment::findRateReport("t", {serial}, ro));
  }
}

TEST(FarmEquivalence, ProcessIsolationMatchesSerialToo) {
  if (!detail::processIsolationSupported()) GTEST_SKIP();
  auto spec = accountSpec(24);
  experiment::ExperimentResult serial = experiment::runExperiment(spec);

  FarmOptions fo;
  fo.jobs = 4;
  fo.model = WorkerModel::Process;
  ExperimentCampaign ec = runExperimentFarm(spec, fo);
  EXPECT_EQ(ec.campaign.model, WorkerModel::Process);
  EXPECT_EQ(ec.campaign.crashes, 0u);
  EXPECT_EQ(ec.result.manifested.successes, serial.manifested.successes);
  EXPECT_EQ(ec.result.outcomes.counts(), serial.outcomes.counts());
  EXPECT_EQ(ec.result.events.mean(), serial.events.mean());
  EXPECT_EQ(ec.result.noiseInjections, serial.noiseInjections);
}

// --- supervision: watchdog, crash containment, retries ---------------------

experiment::RunObservation quickJob(std::uint64_t i) {
  experiment::RunObservation o;
  o.runIndex = i;
  o.seed = i;
  o.status = "completed";
  o.outcome = "ok";
  return o;
}

TEST(FarmWatchdog, HungRunIsRecordedAndCampaignCompletes) {
  FarmOptions fo;
  fo.jobs = 2;
  fo.runTimeout = std::chrono::milliseconds(60);
  CampaignResult cr = runJobs(
      8,
      [](std::uint64_t i) {
        if (i == 3) {
          std::this_thread::sleep_for(std::chrono::milliseconds(400));
        }
        return quickJob(i);
      },
      fo);
  ASSERT_EQ(cr.records.size(), 8u);
  EXPECT_EQ(cr.timeouts, 1u);
  EXPECT_EQ(cr.records[3].status, "timeout");
  for (std::size_t i = 0; i < 8; ++i) {
    if (i != 3) {
      EXPECT_EQ(cr.records[i].status, "completed") << i;
    }
  }
}

TEST(FarmWatchdog, ProcessWorkerIsKilledOnTimeout) {
  if (!detail::processIsolationSupported()) GTEST_SKIP();
  FarmOptions fo;
  fo.jobs = 2;
  fo.model = WorkerModel::Process;
  fo.runTimeout = std::chrono::milliseconds(80);
  CampaignResult cr = runJobs(
      6,
      [](std::uint64_t i) {
        if (i == 2) {
          std::this_thread::sleep_for(std::chrono::seconds(10));  // "hung"
        }
        return quickJob(i);
      },
      fo);
  ASSERT_EQ(cr.records.size(), 6u);
  EXPECT_EQ(cr.timeouts, 1u);
  EXPECT_EQ(cr.records[2].status, "timeout");
  EXPECT_EQ(cr.records[5].status, "completed");
}

TEST(FarmCrash, AbortingWorkerIsContained) {
  if (!detail::processIsolationSupported()) GTEST_SKIP();
  FarmOptions fo;
  fo.jobs = 3;
  fo.model = WorkerModel::Process;
  CampaignResult cr = runJobs(
      9,
      [](std::uint64_t i) -> experiment::RunObservation {
        if (i == 4) std::abort();  // isolated: kills only its worker
        return quickJob(i);
      },
      fo);
  ASSERT_EQ(cr.records.size(), 9u);
  EXPECT_EQ(cr.crashes, 1u);
  EXPECT_EQ(cr.records[4].status, "crashed");
  for (std::size_t i = 0; i < 9; ++i) {
    if (i != 4) {
      EXPECT_EQ(cr.records[i].status, "completed") << i;
    }
  }
}

TEST(FarmRetry, TransientInfraFailureIsRetried) {
  std::atomic<int> failures{2};
  FarmOptions fo;
  fo.jobs = 1;
  fo.maxRetries = 3;
  fo.retryBackoff = std::chrono::milliseconds(1);
  CampaignResult cr = runJobs(
      3,
      [&failures](std::uint64_t i) {
        if (i == 1 && failures.fetch_sub(1) > 0) {
          throw std::runtime_error("transient harness failure");
        }
        return quickJob(i);
      },
      fo);
  ASSERT_EQ(cr.records.size(), 3u);
  EXPECT_EQ(cr.records[1].status, "completed");
  EXPECT_EQ(cr.records[1].attempts, 3u);
  EXPECT_EQ(cr.retries, 2u);
  EXPECT_EQ(cr.infraErrors, 0u);
}

TEST(FarmRetry, PersistentInfraFailureIsRecordedNotFatal) {
  FarmOptions fo;
  fo.jobs = 2;
  fo.maxRetries = 1;
  fo.retryBackoff = std::chrono::milliseconds(1);
  CampaignResult cr = runJobs(
      4,
      [](std::uint64_t i) -> experiment::RunObservation {
        if (i == 0) throw std::runtime_error("broken harness");
        return quickJob(i);
      },
      fo);
  ASSERT_EQ(cr.records.size(), 4u);
  EXPECT_EQ(cr.records[0].status, "infra-error");
  EXPECT_EQ(cr.records[0].attempts, 2u);
  EXPECT_NE(cr.records[0].failureMessage.find("broken harness"),
            std::string::npos);
  EXPECT_EQ(cr.infraErrors, 1u);
  EXPECT_EQ(cr.records[3].status, "completed");
}

// --- early stop + JSONL ----------------------------------------------------

TEST(FarmStop, StopOnRecordCancelsRemainingRuns) {
  // Runs 0 and 1 open worker 0's block (the farm hands each worker a
  // contiguous block); every later job waits, boundedly, until the stop
  // predicate has seen run 1's record, so no worker can finish all 1000
  // jobs before the stop.
  std::atomic<bool> stopSeen{false};
  FarmOptions fo;
  fo.jobs = 2;
  fo.stopOnRecord = [&](const experiment::RunObservation& o) {
    if (o.runIndex != 1) return false;
    stopSeen = true;
    return true;
  };
  CampaignResult cr = runJobs(
      1000,
      [&](std::uint64_t i) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (i > 1 && !stopSeen &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        return quickJob(i);
      },
      fo);
  EXPECT_TRUE(cr.stoppedEarly);
  EXPECT_LT(cr.records.size(), 1000u);
  EXPECT_GE(cr.records.size(), 1u);
}

TEST(FarmJsonl, StreamsOneRecordPerRun) {
  std::string path = ::testing::TempDir() + "farm_stream.jsonl";
  auto spec = accountSpec(10);
  FarmOptions fo;
  fo.jobs = 4;
  fo.jsonlPath = path;
  ExperimentCampaign ec = runExperimentFarm(spec, fo);
  ASSERT_EQ(ec.result.runs, 10u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"run\":"), std::string::npos);
    EXPECT_NE(line.find("\"status\":"), std::string::npos);
    EXPECT_NE(line.find("\"worker\":"), std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, 10u);
  std::remove(path.c_str());
}

TEST(FarmScrub, ScrubTimingMakesJournalsByteReproducible) {
  // With scrubTiming, every record's wall-clock fields are zeroed at
  // delivery, so two executions of the same campaign write byte-identical
  // journals (the property the fleet's byte-compare smoke test rests on).
  // jobs = 1 because the journal is an arrival-order log: only the serial
  // farm (and the fleet's reorder buffer) pin the line order.
  auto spec = accountSpec(12);
  std::string journals[2];
  for (int pass = 0; pass < 2; ++pass) {
    std::string path = ::testing::TempDir() + "farm_scrub_" +
                       std::to_string(pass) + ".journal";
    std::remove(path.c_str());
    FarmOptions fo;
    fo.jobs = 1;
    fo.scrubTiming = true;
    fo.journalPath = path;
    ExperimentCampaign ec = runExperimentFarm(spec, fo);
    for (const auto& r : ec.campaign.records) {
      EXPECT_EQ(r.wallSeconds, 0.0);
      EXPECT_EQ(r.dispatchNsPerEvent, 0.0);
    }
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    journals[pass] = ss.str();
    std::remove(path.c_str());
  }
  ASSERT_FALSE(journals[0].empty());
  EXPECT_EQ(journals[0], journals[1]);
}

// --- supervised outcomes flow into the experiment merge --------------------

TEST(FarmMerge, SupervisedRecordsBecomeRunStatusOutcomes) {
  auto spec = accountSpec(6);
  FarmOptions fo;
  fo.jobs = 2;
  ExperimentCampaign ec = runExperimentFarm(spec, fo);

  // Splice in a synthetic timeout record the way the engine would and
  // re-fold: the outcome distribution and status counts must reflect it.
  experiment::RunObservation t;
  t.runIndex = 99;
  t.seed = 99;
  t.status = "timeout";
  experiment::ExperimentResult again;
  for (const auto& r : ec.campaign.records) experiment::accumulate(again, r);
  experiment::accumulate(again, t);
  EXPECT_EQ(again.statusCounts.at("timeout"), 1u);
  EXPECT_EQ(again.outcomes.counts().at("farm:timeout"), 1u);
  EXPECT_EQ(again.manifested.trials, 7u);
}

// --- configuration validation ----------------------------------------------

TEST(FarmValidation, UnknownNamesFailFastWithClearErrors) {
  auto spec = accountSpec(5);
  spec.tool.policy = "bogus";
  EXPECT_THROW(runExperimentFarm(spec, {}), std::runtime_error);

  spec = accountSpec(5);
  spec.tool.noiseName = "zap";
  EXPECT_THROW(runExperimentFarm(spec, {}), std::runtime_error);

  spec = accountSpec(5);
  spec.tool.detectors = {"nope"};
  EXPECT_THROW(runExperimentFarm(spec, {}), std::runtime_error);

  spec = accountSpec(5);
  spec.programName = "no_such_program";
  EXPECT_THROW(runExperimentFarm(spec, {}), std::runtime_error);

  try {
    experiment::makePolicy("bogus");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("rr"), std::string::npos);
  }
}

// --- generic candidate evaluation -------------------------------------------

TEST(CandidateScan, SmallestAcceptedIndexWinsForAnyWorkerCount) {
  auto accept = [](std::uint64_t i) { return i >= 3; };
  for (std::size_t jobs : {1u, 2u, 4u, 8u}) {
    CandidateScan s = scanCandidates(64, accept, jobs);
    EXPECT_TRUE(s.found) << "jobs=" << jobs;
    EXPECT_EQ(s.index, 3u) << "jobs=" << jobs;
  }
}

TEST(CandidateScan, SerialScanStopsAtTheFirstAccept) {
  std::atomic<std::uint64_t> calls{0};
  CandidateScan s = scanCandidates(
      100,
      [&calls](std::uint64_t i) {
        calls.fetch_add(1);
        return i == 5;
      },
      1);
  EXPECT_TRUE(s.found);
  EXPECT_EQ(s.index, 5u);
  EXPECT_EQ(s.evaluated, 6u);
  EXPECT_EQ(calls.load(), 6u);
}

TEST(CandidateScan, HandlesNoAcceptAndEmptyRange) {
  CandidateScan none =
      scanCandidates(17, [](std::uint64_t) { return false; }, 4);
  EXPECT_FALSE(none.found);
  EXPECT_EQ(none.evaluated, 17u);

  CandidateScan empty =
      scanCandidates(0, [](std::uint64_t) { return true; }, 4);
  EXPECT_FALSE(empty.found);
  EXPECT_EQ(empty.evaluated, 0u);
}

TEST(CandidateScan, ThrowingPredicateCountsAsRejection) {
  auto accept = [](std::uint64_t i) -> bool {
    if (i < 4) throw std::runtime_error("probe exploded");
    return i == 4;
  };
  for (std::size_t jobs : {1u, 4u}) {
    CandidateScan s = scanCandidates(8, accept, jobs);
    EXPECT_TRUE(s.found) << "jobs=" << jobs;
    EXPECT_EQ(s.index, 4u) << "jobs=" << jobs;
  }
}

// --- journal & resume ------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string timingFreeReport(const experiment::ExperimentResult& r) {
  experiment::ReportOptions ro;
  ro.timing = false;
  return experiment::findRateReport("t", {r}, ro);
}

TEST(FarmJournal, RoundTripRecordsEveryRun) {
  std::string path = ::testing::TempDir() + "roundtrip.journal";
  std::remove(path.c_str());
  auto spec = accountSpec(12);
  FarmOptions fo;
  fo.jobs = 2;
  fo.journalPath = path;
  ExperimentCampaign ec = runExperimentFarm(spec, fo);
  ASSERT_EQ(ec.campaign.records.size(), 12u);

  JournalData jd = loadJournal(path);
  EXPECT_FALSE(jd.tornTail);
  EXPECT_EQ(jd.total, 12u);
  ASSERT_EQ(jd.records.size(), 12u);
  // Journal order is delivery order; match by runIndex against the sorted
  // campaign records.
  for (const auto& r : jd.records) {
    ASSERT_LT(r.runIndex, 12u);
    const auto& want = ec.campaign.records[r.runIndex];
    EXPECT_EQ(r.status, want.status);
    EXPECT_EQ(r.seed, want.seed);
    EXPECT_EQ(r.outcome, want.outcome);
  }
  std::remove(path.c_str());
}

TEST(FarmJournal, EveryBytePrefixRecoversCleanly) {
  std::string path = ::testing::TempDir() + "fuzz.journal";
  std::remove(path.c_str());
  auto spec = accountSpec(6);
  FarmOptions fo;
  fo.jobs = 1;
  fo.journalPath = path;
  runExperimentFarm(spec, fo);
  std::string whole = slurp(path);
  ASSERT_GT(whole.size(), 0u);
  JournalData full = loadJournal(path);
  ASSERT_EQ(full.records.size(), 6u);

  // Truncation at ANY byte is what SIGKILL leaves behind: every prefix must
  // load without throwing, recover only complete records, and flag the torn
  // tail so the writer can repair the file before appending.
  std::string cut = ::testing::TempDir() + "fuzz.cut.journal";
  for (std::size_t n = 0; n <= whole.size(); ++n) {
    std::ofstream(cut, std::ios::binary | std::ios::trunc)
        << whole.substr(0, n);
    JournalData jd;
    ASSERT_NO_THROW(jd = loadJournal(cut)) << "prefix " << n;
    ASSERT_LE(jd.records.size(), full.records.size()) << "prefix " << n;
    for (std::size_t i = 0; i < jd.records.size(); ++i) {
      EXPECT_EQ(jd.records[i].runIndex, full.records[i].runIndex)
          << "prefix " << n;
      EXPECT_EQ(jd.records[i].outcome, full.records[i].outcome)
          << "prefix " << n;
    }
    // Torn iff the cut landed mid-line (the tail must be repaired before
    // appending) or before the config line completed; a cut at a record
    // boundary leaves a clean, directly appendable journal.
    bool expectTorn = n == 0 || whole[n - 1] != '\n' ||
                      n == std::string("MTTJOURNAL 1\n").size();
    EXPECT_EQ(jd.tornTail, expectTorn) << "prefix " << n;
  }
  std::remove(path.c_str());
  std::remove(cut.c_str());
}

TEST(FarmJournal, TerminatedCorruptionIsDiagnosedNotSilentlyDropped) {
  std::string path = ::testing::TempDir() + "corrupt.journal";
  std::remove(path.c_str());
  auto spec = accountSpec(3);
  FarmOptions fo;
  fo.jobs = 1;
  fo.journalPath = path;
  runExperimentFarm(spec, fo);
  std::string whole = slurp(path);
  // Flip one payload byte of a terminated record: the checksum no longer
  // matches, and unlike a torn tail this is bit rot, not a crash artifact.
  std::size_t firstR = whole.find("\nR ");
  ASSERT_NE(firstR, std::string::npos);
  std::size_t payload = firstR + 3 + 17;  // past "R <16-hex> "
  whole[payload] = whole[payload] == 'x' ? 'y' : 'x';
  std::ofstream(path, std::ios::binary | std::ios::trunc) << whole;
  try {
    loadJournal(path);
    FAIL() << "expected corrupt-journal diagnostic";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("corrupt"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(FarmJournal, ConfigMismatchIsRefusedWithDiagnostic) {
  std::string path = ::testing::TempDir() + "mismatch.journal";
  std::remove(path.c_str());
  auto spec = accountSpec(8);
  FarmOptions fo;
  fo.jobs = 1;
  fo.journalPath = path;
  runExperimentFarm(spec, fo);

  // Same journal, different tool stack: the records are incomparable.
  auto other = accountSpec(8);
  other.tool.noiseName = "yield";
  FarmOptions ro;
  ro.jobs = 1;
  ro.journalPath = path;
  ro.resume = true;
  try {
    runExperimentFarm(other, ro);
    FAIL() << "expected config-mismatch rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("different campaign config"),
              std::string::npos);
  }

  // Same config, different run count: also refused.
  auto shorter = accountSpec(4);
  try {
    runExperimentFarm(shorter, ro);
    FAIL() << "expected size-mismatch rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("refusing"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(FarmJournal, ResumeProducesByteIdenticalReport) {
  auto spec = accountSpec(48);
  std::string reference =
      timingFreeReport(experiment::runExperiment(spec));

  for (std::size_t resumeJobs : {1u, 3u}) {
    std::string path = ::testing::TempDir() + "resume" +
                       std::to_string(resumeJobs) + ".journal";
    std::remove(path.c_str());
    // Interrupt the campaign partway: stopOnRecord models the drain after
    // SIGINT (records flushed, dispatch stopped, gaps left behind).
    FarmOptions part;
    part.jobs = 2;
    part.journalPath = path;
    part.stopOnRecord = [](const experiment::RunObservation& o) {
      return o.runIndex >= 23;
    };
    ExperimentCampaign partial = runExperimentFarm(spec, part);
    ASSERT_TRUE(partial.campaign.stoppedEarly);
    ASSERT_LT(partial.campaign.records.size(), 48u);

    FarmOptions res;
    res.jobs = resumeJobs;
    res.journalPath = path;
    res.resume = true;
    ExperimentCampaign resumed = runExperimentFarm(spec, res);
    SCOPED_TRACE("resumeJobs=" + std::to_string(resumeJobs));
    EXPECT_EQ(resumed.campaign.resumed, partial.campaign.records.size());
    EXPECT_EQ(resumed.campaign.records.size(), 48u);
    EXPECT_EQ(timingFreeReport(resumed.result), reference);
    std::remove(path.c_str());
  }
}

TEST(FarmJournal, ResumeOfCompleteJournalRunsNothing) {
  std::string path = ::testing::TempDir() + "complete.journal";
  std::remove(path.c_str());
  auto spec = accountSpec(10);
  FarmOptions fo;
  fo.jobs = 2;
  fo.journalPath = path;
  ASSERT_EQ(runExperimentFarm(spec, fo).campaign.records.size(), 10u);

  std::atomic<std::size_t> executed{0};
  FarmOptions res;
  res.jobs = 2;
  res.journalPath = path;
  res.resume = true;
  // The same fingerprint runExperimentFarm derives; if the derivation
  // drifts the loader throws, failing this test loudly.
  res.journalConfig = spec.programName + "|" + spec.tool.label() + "|" +
                      std::to_string(spec.runs) + "|" +
                      std::to_string(spec.seedBase);
  CampaignResult cr = runJobs(
      10,
      [&executed](std::uint64_t i) {
        executed.fetch_add(1);
        return quickJob(i);
      },
      res);
  EXPECT_EQ(executed.load(), 0u);
  EXPECT_EQ(cr.resumed, 10u);
  EXPECT_EQ(cr.records.size(), 10u);
  std::remove(path.c_str());
}

TEST(FarmJournal, QuarantinedInfraErrorsAreNotReburned) {
  std::string path = ::testing::TempDir() + "quarantine.journal";
  std::remove(path.c_str());
  FarmOptions fo;
  fo.jobs = 1;
  fo.maxRetries = 0;
  fo.journalPath = path;
  fo.journalConfig = "qtest";
  CampaignResult first = runJobs(
      4,
      [](std::uint64_t i) -> experiment::RunObservation {
        if (i == 2) throw std::runtime_error("deterministically broken");
        return quickJob(i);
      },
      fo);
  ASSERT_EQ(first.infraErrors, 1u);

  // On resume the journaled infra-error is reported, not re-attempted —
  // its retry budget was already exhausted in the first campaign.
  std::atomic<std::size_t> executed{0};
  FarmOptions res = fo;
  res.resume = true;
  CampaignResult second = runJobs(
      4,
      [&executed](std::uint64_t i) {
        executed.fetch_add(1);
        return quickJob(i);
      },
      res);
  EXPECT_EQ(executed.load(), 0u);
  EXPECT_EQ(second.quarantined, 1u);
  EXPECT_EQ(second.infraErrors, 1u);
  ASSERT_EQ(second.records.size(), 4u);
  EXPECT_EQ(second.records[2].status, "infra-error");
  std::remove(path.c_str());
}

// --- external stop flag ----------------------------------------------------

TEST(FarmInterrupt, StopFlagStopsDispatchAndDrains) {
  std::atomic<bool> stop{false};
  FarmOptions fo;
  fo.jobs = 2;
  fo.stopFlag = &stop;
  CampaignResult cr = runJobs(
      10'000,
      [&stop](std::uint64_t i) {
        if (i == 7) stop.store(true);
        return quickJob(i);
      },
      fo);
  EXPECT_TRUE(cr.stoppedEarly);
  EXPECT_GE(cr.records.size(), 1u);
  EXPECT_LT(cr.records.size(), 10'000u);
}

// --- postmortem flight recorder --------------------------------------------

experiment::ExperimentSpec crashSpec(const char* program, std::size_t runs) {
  experiment::ExperimentSpec spec;
  spec.programName = program;
  spec.runs = runs;
  spec.tool.policy = "random";
  return spec;
}

TEST(FarmPostmortem, CrashedRunDeliversReplayableScenario) {
  if (!detail::processIsolationSupported()) GTEST_SKIP();
  std::string dir = ::testing::TempDir() + "pm_crash";
  std::filesystem::remove_all(dir);
  ::setenv("MTT_CRASH_DEREF_HARD", "1", 1);
  FarmOptions fo;
  fo.jobs = 2;
  fo.model = WorkerModel::Process;
  fo.postmortemDir = dir;
  ExperimentCampaign ec = runExperimentFarm(crashSpec("crash_deref", 24), fo);
  ::unsetenv("MTT_CRASH_DEREF_HARD");

  ASSERT_GT(ec.campaign.crashes, 0u);
  bool sawDump = false;
  for (const auto& r : ec.campaign.records) {
    if (r.status != "crashed") continue;
    ASSERT_FALSE(r.postmortemPath.empty()) << "run " << r.runIndex;
    replay::Scenario sc = replay::loadScenario(r.postmortemPath);
    EXPECT_EQ(sc.program, "crash_deref");
    EXPECT_EQ(sc.seed, r.seed);
    EXPECT_GT(sc.schedule.size(), 0u);
    // The annotations carry the fatal signal (SIGSEGV).
    EXPECT_NE(slurp(r.postmortemPath).find("postmortem signal 11"),
              std::string::npos);
    sawDump = true;
  }
  EXPECT_TRUE(sawDump);
  std::filesystem::remove_all(dir);
}

TEST(FarmPostmortem, TimeoutDrainDeliversReplayableScenario) {
  if (!detail::processIsolationSupported()) GTEST_SKIP();
  std::string dir = ::testing::TempDir() + "pm_stall";
  std::filesystem::remove_all(dir);
  FarmOptions fo;
  fo.jobs = 2;
  fo.model = WorkerModel::Process;
  fo.runTimeout = std::chrono::milliseconds(300);
  fo.postmortemDir = dir;
  ExperimentCampaign ec = runExperimentFarm(crashSpec("wall_stall", 8), fo);

  ASSERT_GT(ec.campaign.timeouts, 0u);
  bool sawDump = false;
  for (const auto& r : ec.campaign.records) {
    if (r.status != "timeout" || r.postmortemPath.empty()) continue;
    replay::Scenario sc = replay::loadScenario(r.postmortemPath);
    EXPECT_EQ(sc.program, "wall_stall");
    EXPECT_GT(sc.schedule.size(), 0u);
    sawDump = true;
  }
  // The SIGTERM drain raced the 500ms kill window; at least one stalled
  // worker must have dumped before dying.
  EXPECT_TRUE(sawDump);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mtt::farm
