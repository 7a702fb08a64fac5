// E12 — the fleet dispatch tax: what does moving a campaign's runs across
// a socket cost per run, and how fast can the coordinator fold the records
// coming back?
//
// Two measurements:
//   (a) socket-dispatch overhead — the same campaign through the serial
//       farm (`--jobs 1`) and through a coordinator + one local worker on
//       a unix socket.  The delta, divided by the run count, is the per-run
//       price of framing + wire + reorder-buffered fold; the timing-free
//       reports must stay byte-identical (the fleet's core claim).
//   (b) fold throughput — RECORD payload decode + experiment::accumulate,
//       the coordinator's per-record hot path, over pre-encoded payloads.
//       This bounds how large a fleet one coordinator can feed.
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/table.hpp"
#include "experiment/experiment.hpp"
#include "experiments.hpp"
#include "farm/farm.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/protocol.hpp"
#include "fleet/worker.hpp"

namespace mtt::bench {

bool runE12() {
  const std::size_t kRuns = 800;
  std::printf(
      "%zu controlled runs of bounded_buffer_bug with mixed noise.\n\n",
      kRuns);

  const auto spec = campaignSpec(kRuns);
  const std::string sock =
      (std::filesystem::temp_directory_path() /
       ("bench-fleet-" + std::to_string(::getpid()) + ".sock"))
          .string();

  // --- (a) serial farm vs. coordinator + one local worker ----------------
  // Each wall covers the whole call: for the fleet that includes starting
  // the worker thread and its connect.
  farm::ExperimentCampaign farmRun;
  const double farmSec = bestWall(3, [&] {
    farm::FarmOptions fo;
    fo.jobs = 1;
    farmRun = farm::runExperimentFarm(spec, fo);
  });

  farm::ExperimentCampaign fleetRun;
  const double fleetSec = bestWall(3, [&] {
    fleet::FleetOptions fl;
    fl.listen = "unix:" + sock;
    std::thread worker([&sock] {
      fleet::WorkerOptions wo;
      wo.connect = "unix:" + sock;
      fleet::runWorker(wo);
    });
    fleetRun = fleet::runExperimentFleet(spec, fl);
    worker.join();
  });
  std::filesystem::remove(sock);

  const bool identical =
      reportLine(farmRun.result) == reportLine(fleetRun.result);
  const double perRunUs = (fleetSec - farmSec) / kRuns * 1e6;

  TextTable t("E12 / socket dispatch vs. in-process farm (best of 3)");
  t.header({"path", "wall s", "runs/s", "per-run overhead", "identical"});
  t.row({"farm --jobs 1", TextTable::num(farmSec, 3),
         TextTable::num(kRuns / farmSec, 0), "-", "-"});
  t.row({"fleet, 1 worker", TextTable::num(fleetSec, 3),
         TextTable::num(kRuns / fleetSec, 0),
         TextTable::num(perRunUs, 1) + " us", yesNo(identical)});
  t.print();
  std::printf(
      "\nThe overhead column prices one lease/record round trip: frame\n"
      "encode + unix-socket write + coordinator decode + reorder-buffer\n"
      "fold.  Expected well under 1 ms/run — microsecond-scale controlled\n"
      "runs should not be dominated by their own transport.\n");

  // --- (b) coordinator fold throughput -----------------------------------
  // Pre-encode RECORD payloads from real observations, then time the
  // coordinator's receive path: decodeRecord + accumulate.
  std::vector<std::string> payloads;
  payloads.reserve(farmRun.campaign.records.size());
  for (const experiment::RunObservation& obs : farmRun.campaign.records) {
    payloads.push_back(fleet::encodeRecord(1, obs));
  }
  const std::size_t kFold = 200000;
  experiment::ExperimentResult fold;
  std::size_t bad = 0;
  const double foldSec = bestWall(1, [&] {
    for (std::size_t i = 0; i < kFold; ++i) {
      std::uint64_t leaseId = 0;
      experiment::RunObservation obs;
      std::string err;
      if (!fleet::decodeRecord(payloads[i % payloads.size()], leaseId, obs,
                               err)) {
        ++bad;
        continue;
      }
      experiment::accumulate(fold, obs);
    }
  });
  const double foldRate = kFold / foldSec;
  std::printf(
      "\nfold throughput: %zu records in %.3f s = %.0f records/s"
      " (%zu decode failures)\n"
      "At ~%.0f runs/s per serial worker, one coordinator keeps roughly\n"
      "%.0f such workers saturated before the fold itself is the ceiling.\n",
      kFold, foldSec, foldRate, bad, kRuns / farmSec,
      foldRate / (kRuns / farmSec));

  const bool pass = identical && bad == 0 && perRunUs < 1000.0;
  std::printf("\ncriterion: identical reports, 0 decode failures, < 1000 "
              "us/run overhead -> %s\n",
              pass ? "PASS" : "FAIL");
  saveJson("E12", "fleet",
           {{"runs", kRuns}, {"farm_jobs1_wall_s", farmSec},
            {"fleet_1worker_wall_s", fleetSec},
            {"per_run_overhead_us", perRunUs}, {"target_overhead_us", 1000},
            {"reports_identical", identical}, {"fold_records_per_s", foldRate},
            {"pass", pass}});
  return pass;
}

}  // namespace mtt::bench
