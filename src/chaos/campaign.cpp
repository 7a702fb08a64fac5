#include "chaos/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "core/atomic_file.hpp"
#include "core/stats.hpp"
#include "farm/farm.hpp"
#include "farm/journal.hpp"
#include "farm/record_io.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/worker.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace mtt::chaos {

namespace fs = std::filesystem;

const char* to_string(ChaosVerdict v) {
  switch (v) {
    case ChaosVerdict::Recovered: return "recovered";
    case ChaosVerdict::DegradedResumable: return "degraded-resumable";
    case ChaosVerdict::Corruption: return "corruption";
    case ChaosVerdict::Hang: return "hang";
    case ChaosVerdict::Failed: return "failed";
  }
  return "?";
}

namespace {

/// The timing-free report text both sides of every comparison use.
std::string reportText(const experiment::ExperimentResult& r) {
  experiment::ReportOptions ro;
  ro.timing = false;
  return experiment::findRateReport("chaos", {r}, ro);
}

/// Canonical journal content: records sorted by run index, re-encoded.
/// A completed fleet campaign writes this byte sequence directly (the
/// reorder buffer delivers in index order); an aborted-then-resumed journal
/// appends the resumed tail after the pre-abort records, so the file is a
/// permutation of the baseline — canonicalization makes "same records,
/// bit for bit" comparable in both cases.
std::string canonicalJournal(const std::string& path) {
  farm::JournalData jd = farm::loadJournal(path);
  std::sort(jd.records.begin(), jd.records.end(),
            [](const experiment::RunObservation& a,
               const experiment::RunObservation& b) {
              return a.runIndex < b.runIndex;
            });
  std::string out;
  for (const experiment::RunObservation& obs : jd.records) {
    out += farm::encodePipeRecord(obs);
    out += '\n';
  }
  return out;
}

/// A wall-clock watchdog that flips the shared stop latch when the cap
/// expires.  Every loop in the coordinator, the workers, and the farm polls
/// that latch, so the campaign winds down promptly once it fires — but the
/// cap having fired at all already means the run failed the promptness arm.
class Watchdog {
 public:
  Watchdog(std::chrono::milliseconds cap, std::atomic<bool>& stop)
      : cap_(cap), stop_(stop), thread_([this] { run(); }) {}

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  bool fired() const { return fired_.load(std::memory_order_relaxed); }

 private:
  void run() {
    std::unique_lock<std::mutex> lk(mu_);
    if (cv_.wait_for(lk, cap_, [this] { return done_; })) return;
    fired_.store(true, std::memory_order_relaxed);
    stop_.store(true, std::memory_order_relaxed);
  }

  const std::chrono::milliseconds cap_;
  std::atomic<bool>& stop_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::atomic<bool> fired_{false};
  std::thread thread_;
};

}  // namespace

ChaosReport runChaosCampaign(const experiment::ExperimentSpec& spec,
                             const ChaosOptions& options) {
  // Configuration errors throw before any campaign starts.
  std::vector<FaultRule> rules = parsePlan(options.plan);
  Stopwatch wall;

#if defined(__unix__) || defined(__APPLE__)
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  fs::path dir = options.workDir.empty()
                     ? fs::temp_directory_path() /
                           ("mtt-chaos-" + std::to_string(pid))
                     : fs::path(options.workDir);
  fs::create_directories(dir);
  const std::string baselineJournal = (dir / "baseline.journal").string();
  const std::string chaosJournal = (dir / "chaos.journal").string();
  const std::string sockPath = (dir / "chaos.sock").string();
  fs::remove(baselineJournal);
  fs::remove(chaosJournal);
  fs::remove(sockPath);

  ChaosReport report;
  report.runs = spec.runs;

  // --- 1. fault-free serial baseline (no injector installed) -------------
  farm::FarmOptions serial;
  serial.jobs = 1;
  serial.scrubTiming = true;
  serial.journalPath = baselineJournal;
  farm::ExperimentCampaign baseline = farm::runExperimentFarm(spec, serial);
  const std::string baselineReport = reportText(baseline.result);
  const std::string baselineCanon = canonicalJournal(baselineJournal);

  // --- 2. the chaos run: fleet + workers under the installed plan --------
  std::atomic<bool> stop{false};
  fleet::FleetOptions fl;
  fl.listen = "unix:" + sockPath;
  fl.leaseSize = options.leaseSize;
  fl.heartbeatInterval = options.heartbeat;
  fl.leaseTimeout = options.leaseTimeout;
  fl.noProgressTimeout = options.noProgressTimeout;
  // Injected transport faults are not program crashes: a severed run is
  // always safe to re-execute, so the per-index give-up budget (meant for
  // poison runs that kill every worker they touch) must not convert chaos
  // into synthesized "crashed" records.  Termination is the watchdog's job.
  fl.indexGiveUp = 64;
  fl.farm.scrubTiming = true;
  fl.farm.journalPath = chaosJournal;
  fl.farm.stopFlag = &stop;

  FaultPlan plan(std::move(rules), options.seed);
  farm::ExperimentCampaign chaosRun;
  std::vector<fleet::WorkerStats> workerStats(options.workers);
  bool watchdogFired = false;
  {
    core::FaultScope scope(&plan);
    Watchdog watchdog(options.wallCap, stop);
    std::vector<std::thread> workers;
    workers.reserve(options.workers);
    for (std::size_t i = 0; i < options.workers; ++i) {
      workers.emplace_back([&, i] {
        fleet::WorkerOptions wo;
        wo.connect = "unix:" + sockPath;
        wo.connectTimeout = std::chrono::milliseconds(5000);
        wo.heartbeatInterval = options.heartbeat;
        wo.reconnect = true;
        wo.reconnectAttempts = 4;
        wo.stopFlag = &stop;
        try {
          workerStats[i] = fleet::runWorker(wo);
        } catch (const std::exception& e) {
          workerStats[i].exitReason = std::string("worker died: ") + e.what();
        }
      });
    }
    try {
      chaosRun = fleet::runExperimentFleet(spec, fl);
    } catch (const std::exception& e) {
      // A fault can kill the campaign before it starts (e.g. an injected
      // fsync failure while the journal header is written).  That is a
      // degraded exit, not a driver crash: the exception becomes the
      // diagnostic and the workers must still be joined.
      chaosRun.campaign.abortDiagnostic =
          std::string("campaign failed: ") + e.what() +
          "; the campaign journal is resumable";
    }
    // The campaign is over; release any worker still in an idle/reconnect
    // loop (QUIT may have been lost to an injected sever).
    stop.store(true, std::memory_order_relaxed);
    for (auto& w : workers) w.join();
    watchdogFired = watchdog.fired();
  }
  report.faults = plan.stats();
  report.delivered = chaosRun.campaign.records.size();
  for (const fleet::WorkerStats& ws : workerStats) {
    report.workerReconnects += ws.reconnects;
  }

  // --- 3. the verdict ----------------------------------------------------
  if (watchdogFired) {
    report.verdict = ChaosVerdict::Hang;
    report.diagnostic =
        "campaign did not terminate within the " +
        std::to_string(options.wallCap.count()) +
        " ms wall cap (delivered " + std::to_string(report.delivered) +
        " of " + std::to_string(report.runs) + " records)";
  } else if (report.delivered == spec.runs &&
             chaosRun.campaign.abortDiagnostic.empty()) {
    // Completed under faults: the recovery machinery absorbed everything.
    // The claim is bitwise — the journal FILE matches, not just its records.
    const std::string chaosReport = reportText(chaosRun.result);
    std::string chaosBytes, baselineBytes;
    if (chaosReport == baselineReport &&
        core::readFile(chaosJournal, chaosBytes) &&
        core::readFile(baselineJournal, baselineBytes) &&
        chaosBytes == baselineBytes) {
      report.verdict = ChaosVerdict::Recovered;
    } else {
      report.verdict = ChaosVerdict::Corruption;
      report.diagnostic =
          chaosReport == baselineReport
              ? "campaign completed but its journal diverges from the "
                "fault-free --jobs 1 journal"
              : "campaign completed but its report diverges from the "
                "fault-free --jobs 1 report";
    }
  } else if (chaosRun.campaign.abortDiagnostic.empty()) {
    report.verdict = ChaosVerdict::Failed;
    report.diagnostic = "campaign stopped early (" +
                        std::to_string(report.delivered) + " of " +
                        std::to_string(report.runs) +
                        " records) without naming its fault";
  } else {
    // Degraded exit: the diagnostic names the fault; the journal must now
    // resume fault-free (no injector installed) to the exact baseline.
    report.diagnostic = chaosRun.campaign.abortDiagnostic;
    try {
      farm::FarmOptions resume;
      resume.jobs = 1;
      resume.scrubTiming = true;
      resume.journalPath = chaosJournal;
      resume.resume = true;
      farm::ExperimentCampaign resumed = farm::runExperimentFarm(spec, resume);
      const bool match = reportText(resumed.result) == baselineReport &&
                         canonicalJournal(chaosJournal) == baselineCanon;
      report.resumedToBaseline = match;
      report.verdict =
          match ? ChaosVerdict::DegradedResumable : ChaosVerdict::Corruption;
      if (!match) {
        report.diagnostic +=
            "; resumed campaign diverges from the fault-free baseline";
      }
    } catch (const std::exception& e) {
      report.verdict = ChaosVerdict::Failed;
      report.diagnostic += std::string("; journal resume failed: ") + e.what();
    }
  }

  report.wallSeconds = wall.elapsedSeconds();
  if (!options.keepArtifacts && options.workDir.empty()) {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  return report;
}

std::string renderChaosReport(const ChaosReport& report) {
  std::ostringstream out;
  out << "chaos verdict: " << to_string(report.verdict) << "\n";
  out << "  runs: " << report.delivered << "/" << report.runs
      << "  reconnects: " << report.workerReconnects << "  faults injected: "
      << report.faults.triggers << " (of " << report.faults.opsObserved
      << " ops)\n";
  for (const auto& [cls, n] : report.faults.triggersByClass) {
    out << "    " << cls << ": " << n << "\n";
  }
  if (!report.diagnostic.empty()) {
    out << "  diagnostic: " << report.diagnostic << "\n";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "  wall: %.2fs\n", report.wallSeconds);
  out << buf;
  return out.str();
}

}  // namespace mtt::chaos
