// mtt::farm — thread-pool worker model, work-stealing dispatch, per-run
// watchdog, retry-with-backoff, and the deterministic campaign merge.
// The forked-process worker model is a local fleet (fleet/local.hpp).
#include "farm/farm.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <thread>

#include "core/backoff.hpp"
#include "core/stats.hpp"
#include "farm/collector.hpp"
#include "fleet/local.hpp"

namespace mtt::farm {

namespace detail {
namespace {

// One worker's share of the seed space.  Owners pop from the front (so
// dispatch order tracks run order); thieves steal from the back (so a
// steal grabs the work farthest from the victim's current position).
struct Shard {
  std::mutex mu;
  std::deque<std::uint64_t> q;
};

std::optional<std::uint64_t> popOwn(Shard& s) {
  std::lock_guard<std::mutex> lk(s.mu);
  if (s.q.empty()) return std::nullopt;
  std::uint64_t idx = s.q.front();
  s.q.pop_front();
  return idx;
}

std::optional<std::uint64_t> steal(std::vector<Shard>& shards,
                                   std::size_t self) {
  // Victim choice: the richest shard, so repeated steals spread evenly.
  std::size_t victim = shards.size();
  std::size_t best = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (i == self) continue;
    std::lock_guard<std::mutex> lk(shards[i].mu);
    if (shards[i].q.size() > best) {
      best = shards[i].q.size();
      victim = i;
    }
  }
  if (victim == shards.size()) return std::nullopt;
  std::lock_guard<std::mutex> lk(shards[victim].mu);
  if (shards[victim].q.empty()) return std::nullopt;
  std::uint64_t idx = shards[victim].q.back();
  shards[victim].q.pop_back();
  return idx;
}

void drainAll(std::vector<Shard>& shards) {
  for (auto& s : shards) {
    std::lock_guard<std::mutex> lk(s.mu);
    s.q.clear();
  }
}

/// A run abandoned to its host thread by the watchdog; joined with a grace
/// period at campaign end so normal stragglers finish cleanly.
struct Abandoned {
  std::thread host;
  std::future<experiment::RunObservation> result;
};

class ThreadPool {
 public:
  ThreadPool(std::uint64_t total, const JobFn& fn, const FarmOptions& options,
             Collector& collector)
      : fn_(fn), options_(options), collector_(collector) {
    std::size_t workers = resolveJobs(options.jobs);
    if (total < workers) workers = static_cast<std::size_t>(total);
    if (workers == 0) workers = 1;
    workers_ = workers;
    shards_ = std::vector<Shard>(workers);
    // Contiguous blocks: worker w starts at its own slice of the seed
    // space, so with no stealing the dispatch order is exactly run order.
    // Runs already delivered by a resumed journal are never re-dispatched.
    for (std::uint64_t i = 0; i < total; ++i) {
      if (collector.isDone(i)) continue;
      shards_[static_cast<std::size_t>(i * workers / total)].q.push_back(i);
    }
  }

  void run() {
    std::vector<std::thread> pool;
    pool.reserve(workers_);
    for (std::size_t w = 0; w < workers_; ++w) {
      pool.emplace_back([this, w] { workerLoop(w); });
    }
    for (auto& t : pool) t.join();
    reapAbandoned();
  }

 private:
  void workerLoop(std::size_t self) {
    for (;;) {
      if (collector_.stopped()) {
        drainAll(shards_);
        return;
      }
      std::optional<std::uint64_t> idx = popOwn(shards_[self]);
      if (!idx) idx = steal(shards_, self);
      if (!idx) return;
      collector_.deliver(executeWithRetry(*idx, self), self);
    }
  }

  experiment::RunObservation executeWithRetry(std::uint64_t idx,
                                              std::size_t self) {
    std::string lastError;
    for (std::uint32_t attempt = 1;; ++attempt) {
      try {
        experiment::RunObservation obs = executeSupervised(idx);
        obs.attempts = attempt;
        return obs;
      } catch (const Deadline&) {
        // A watchdog expiry is a run outcome, not an infra failure: the
        // program (or the tool stack) hung; retrying would hang again.
        return collector_.supervisedRecord(idx, "timeout",
                                           "watchdog expired", attempt);
      } catch (const std::exception& e) {
        lastError = e.what();
      } catch (...) {
        lastError = "unknown harness error";
      }
      if (attempt > options_.maxRetries) {
        return collector_.supervisedRecord(idx, "infra-error", lastError,
                                           attempt);
      }
      std::this_thread::sleep_for(
          core::backoffDelay(retryPolicy(options_.retryBackoff), attempt));
      (void)self;
    }
  }

  struct Deadline {};

  experiment::RunObservation executeSupervised(std::uint64_t idx) {
    if (options_.runTimeout.count() <= 0) return fn_(idx);
    // Host the run on its own thread so the watchdog can abandon it: the
    // worker stays available, the hung run keeps its thread until it
    // finishes on its own (the runtimes' step limits and block timeouts
    // make runaway runs finite in practice).
    std::packaged_task<experiment::RunObservation()> task(
        [this, idx] { return fn_(idx); });
    std::future<experiment::RunObservation> result = task.get_future();
    std::thread host(std::move(task));
    if (result.wait_for(options_.runTimeout) ==
        std::future_status::ready) {
      host.join();
      return result.get();  // rethrows job exceptions for the retry loop
    }
    {
      std::lock_guard<std::mutex> lk(abandonedMu_);
      abandoned_.push_back(Abandoned{std::move(host), std::move(result)});
    }
    throw Deadline{};
  }

  void reapAbandoned() {
    std::lock_guard<std::mutex> lk(abandonedMu_);
    auto grace = std::max<std::chrono::milliseconds>(
        options_.runTimeout * 4, std::chrono::milliseconds(500));
    for (auto& a : abandoned_) {
      if (a.result.wait_for(grace) == std::future_status::ready) {
        a.host.join();
      } else {
        a.host.detach();  // truly hung; leak the thread, keep the campaign
      }
    }
    abandoned_.clear();
  }

  const JobFn& fn_;
  const FarmOptions& options_;
  Collector& collector_;
  std::size_t workers_ = 0;
  std::vector<Shard> shards_;
  std::mutex abandonedMu_;
  std::vector<Abandoned> abandoned_;
};

CampaignResult runJobsThreads(std::uint64_t total, const JobFn& fn,
                              const FarmOptions& options) {
  Stopwatch clock;
  Collector collector(total, options);
  if (total > 0) {
    ThreadPool pool(total, fn, options, collector);
    pool.run();
  }
  CampaignResult cr = collector.finish();
  cr.requested = total;
  cr.model = WorkerModel::Thread;
  cr.workers = std::min<std::size_t>(resolveJobs(options.jobs),
                                     std::max<std::uint64_t>(total, 1));
  cr.wallSeconds = clock.elapsedSeconds();
  return cr;
}

/// WorkerModel::Process: a local fleet whose forked workers run `fn`.
CampaignResult runJobsIsolated(std::uint64_t total, const JobFn& fn,
                               const FarmOptions& options) {
  const std::size_t workers = std::min<std::size_t>(
      resolveJobs(options.jobs), std::max<std::uint64_t>(total, 1));
  fleet::LocalFleet local(
      [&fn](const fleet::RunAssignment& a) { return fn(a.index); }, options,
      workers);
  CampaignResult cr = fleet::serveJobs(
      local.coordinator(), total, options, [&options](std::uint64_t i) {
        fleet::RunAssignment a;
        a.index = i;
        a.seed = options.seedForIndex ? options.seedForIndex(i) : i;
        return a;
      });
  cr.model = WorkerModel::Process;
  cr.workers = workers;
  return cr;
}

}  // namespace

bool processIsolationSupported() {
#if defined(__unix__) || defined(__APPLE__)
  return true;
#else
  return false;
#endif
}

FarmOptions experimentOptions(const experiment::ExperimentSpec& spec,
                              FarmOptions options) {
  // Fail fast on configuration mistakes: a bad tool name must be a single
  // clear error, not spec.runs retried infra failures.
  experiment::validateToolConfig(spec.tool);
  suite::makeProgram(spec.programName);  // throws on unknown program
  options.seedForIndex = [&spec](std::uint64_t i) {
    return spec.seedBase + i;
  };
  if (!options.journalPath.empty() && options.journalConfig.empty()) {
    // Identity of the campaign for resume validation.  Worker count and
    // model are deliberately excluded: the merge is independent of both, so
    // a resume may change --jobs or isolation freely.
    options.journalConfig = spec.programName + "|" + spec.tool.label() + "|" +
                            std::to_string(spec.runs) + "|" +
                            std::to_string(spec.seedBase);
  }
  return options;
}

ExperimentCampaign foldExperiment(const experiment::ExperimentSpec& spec,
                                  CampaignResult campaign) {
  ExperimentCampaign out;
  out.campaign = std::move(campaign);
  out.result.programName = spec.programName;
  out.result.toolLabel = spec.tool.label();
  out.result.runs = out.campaign.records.size();
  for (auto& obs : out.campaign.records) {
    // Farm-synthesized records don't know whether the tool stack had
    // detectors attached; patch that in so detectorHit trials stay
    // consistent with the serial path.
    if (obs.supervised()) obs.hasDetectors = !spec.tool.detectors.empty();
    experiment::accumulate(out.result, obs);
  }
  return out;
}

}  // namespace detail

CandidateScan scanCandidates(std::uint64_t total,
                             const std::function<bool(std::uint64_t)>& accept,
                             std::size_t jobs) {
  CandidateScan scan;
  auto tryIndex = [&accept](std::uint64_t i) {
    try {
      return accept(i);
    } catch (...) {
      return false;  // a throwing candidate is a rejected candidate
    }
  };
  if (jobs <= 1 || total <= 1) {
    for (std::uint64_t i = 0; i < total; ++i) {
      ++scan.evaluated;
      if (tryIndex(i)) {
        scan.found = true;
        scan.index = i;
        return scan;
      }
    }
    return scan;
  }
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> best{total};
  std::atomic<std::uint64_t> evaluated{0};
  std::size_t workers = std::min<std::size_t>(resolveJobs(jobs),
                                              static_cast<std::size_t>(total));
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
        // Skipping is only safe past an already-accepted smaller index:
        // every index below the final minimum is always evaluated.
        if (i >= total || i >= best.load(std::memory_order_acquire)) return;
        evaluated.fetch_add(1, std::memory_order_relaxed);
        if (tryIndex(i)) {
          std::uint64_t cur = best.load(std::memory_order_acquire);
          while (i < cur &&
                 !best.compare_exchange_weak(cur, i,
                                             std::memory_order_acq_rel)) {
          }
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  scan.evaluated = evaluated.load();
  std::uint64_t b = best.load();
  scan.found = b < total;
  scan.index = scan.found ? b : 0;
  return scan;
}

CampaignResult runJobs(std::uint64_t total, const JobFn& fn,
                       const FarmOptions& options) {
  if (options.model == WorkerModel::Process &&
      detail::processIsolationSupported()) {
    return detail::runJobsIsolated(total, fn, options);
  }
  return detail::runJobsThreads(total, fn, options);
}

JobFn experimentJob(const experiment::RunSpec& spec) {
  // Leased stacks are reset by executeRun, so results are unchanged.  The
  // pool is shared-ptr captured because a timed-out worker thread can
  // outlive the campaign while still holding its lease.
  auto pool = std::make_shared<experiment::ToolStackPool>(
      [tool = spec.tool]() { return experiment::makeToolStack(tool); });
  return [spec, pool](std::uint64_t i) {
    auto lease = pool->acquire();
    return experiment::executeRun(spec, static_cast<std::size_t>(i), *lease);
  };
}

ExperimentCampaign runExperimentFarm(const experiment::ExperimentSpec& spec,
                                     const FarmOptions& options) {
  const FarmOptions opts = detail::experimentOptions(spec, options);
  return detail::foldExperiment(spec,
                                runJobs(spec.runs, experimentJob(spec), opts));
}

}  // namespace mtt::farm
