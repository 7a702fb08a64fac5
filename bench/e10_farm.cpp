// E10 — campaign throughput and durability: the farm engine's throughput
// vs. worker count, the cost of hard crash isolation (forked worker
// processes) relative to in-process worker threads, and the price of the
// crash-safe journal.
//
// The paper's framework pitch is push-button evaluation; the farm is what
// keeps that button cheap once campaigns reach thousands of seeded runs.
// Expected shape: near-linear scaling to the core count (>=3x at 4 jobs),
// process isolation a modest constant factor behind threads, and the
// deterministic merge byte-identical to the serial path at every scale.
// Criterion: the journaled campaign costs < 2% more wall-clock than the
// plain one.
#include <cstdio>
#include <string>
#include <thread>

#include "core/table.hpp"
#include "experiment/experiment.hpp"
#include "experiments.hpp"
#include "farm/farm.hpp"

namespace mtt::bench {

bool runE10() {
  const std::size_t kRuns = 800;
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf(
      "%zu controlled runs of bounded_buffer_bug with mixed noise per\n"
      "configuration.  Hardware concurrency: %u — speedup is bounded by\n"
      "min(jobs, cores); on a single-core host every row is expected to be\n"
      "~1x.\n\n",
      kRuns, cores);

  const auto spec = campaignSpec(kRuns);

  // Warmed best-of-3: the first campaign in the process pays for cold
  // caches and the first stack mappings, so a single cold run would make
  // the speedup column swing from run to run.
  experiment::ExperimentResult serial = experiment::runExperiment(spec);
  const double serialSec =
      bestWall(3, [&] { serial = experiment::runExperiment(spec); });
  const std::string serialReport = reportLine(serial);
  std::printf("serial baseline: %.4f s  (%.0f runs/s)\n\n", serialSec,
              kRuns / serialSec);

  TextTable t("E10 / speedup vs. worker count");
  t.header({"model", "jobs", "wall s", "runs/s", "speedup", "identical"});
  for (farm::WorkerModel model :
       {farm::WorkerModel::Thread, farm::WorkerModel::Process}) {
    for (std::size_t jobs : {1u, 2u, 4u, 8u}) {
      farm::FarmOptions fo;
      fo.jobs = jobs;
      fo.model = model;
      farm::ExperimentCampaign ec = farm::runExperimentFarm(spec, fo);
      const double sec = ec.campaign.wallSeconds;
      t.row({std::string(to_string(ec.campaign.model)),
             std::to_string(ec.campaign.workers), TextTable::num(sec, 4),
             TextTable::num(ec.campaign.throughput(), 0),
             TextTable::num(serialSec / sec, 2) + "x",
             yesNo(reportLine(ec.result) == serialReport)});
    }
  }
  t.print();

  std::printf(
      "\n'identical' compares the timing-free find-rate report against the\n"
      "serial baseline: the deterministic merge must make every cell 'yes'.\n"
      "Expected shape on an N-core host: thread rows approach min(jobs, N)x\n"
      "(>=3x at 4 jobs on 4+ cores); process rows price hard crash isolation\n"
      "(fork + record pipe) a constant factor behind threads.  The watchdog\n"
      "and retry paths are exercised in tests/test_farm.cpp, not timed here.\n");

  // --- durability: what does the crash-safe journal cost? -----------------
  // Same campaign with and without the checksummed journal; best-of-3
  // filters scheduler noise.  Target: < 2% wall-clock overhead (one
  // ~100-byte formatted append + fflush per run; the fsync is wall-clock
  // batched so microsecond-scale runs never pay one each).  The journal is
  // opened for writing, so every repetition starts from an empty file.
  const std::string journalPath = "BENCH_farm.journal";
  auto timeCampaign = [&spec](const std::string& journal) {
    return bestWall(3, [&] {
      farm::FarmOptions fo;
      fo.jobs = 2;
      fo.journalPath = journal;
      farm::runExperimentFarm(spec, fo);
    });
  };
  const double plainSec = timeCampaign("");
  const double journaledSec = timeCampaign(journalPath);
  const double overhead = plainSec > 0.0 ? journaledSec / plainSec - 1.0 : 0.0;
  std::remove(journalPath.c_str());
  const bool pass = overhead < 0.02;
  std::printf(
      "\njournal overhead: %.4f s plain vs %.4f s journaled, %+.2f%% "
      "(%.2f us/run; target < 2%%) -> %s\n",
      plainSec, journaledSec, overhead * 100.0,
      (journaledSec - plainSec) / kRuns * 1e6, pass ? "PASS" : "FAIL");

  saveJson("E10", "durability",
           {{"runs", kRuns}, {"jobs", 2}, {"plain_wall_s", plainSec},
            {"journaled_wall_s", journaledSec},
            {"journal_overhead", overhead}, {"target_overhead", 0.02}});
  return pass;
}

}  // namespace mtt::bench
