// mtt::farm — the campaign's worker set (in-order dispatch, one watchdog,
// retry-with-backoff) and the deterministic campaign merge.  The
// forked-process worker model is a local fleet (fleet/local.hpp).
#include "farm/farm.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "core/backoff.hpp"
#include "core/stats.hpp"
#include "farm/collector.hpp"
#include "fleet/local.hpp"

namespace mtt::farm {

namespace detail {
namespace {

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

/// Shared with every thread it starts, so a detached abandoned thread
/// still finds its state.  All helper fields are guarded by mu.
struct Workers::Impl : std::enable_shared_from_this<Impl> {
  using Clock = std::chrono::steady_clock;

  /// One call's indices: 0..total-1 in order from one counter, and never
  /// one above the smallest latched index (each one below it was taken).
  struct Cursor {
    const std::uint64_t total;
    std::atomic<std::uint64_t> next{0};
    std::atomic<std::uint64_t> latched{total};

    std::optional<std::uint64_t> take() {
      const std::uint64_t i = next.fetch_add(1);
      if (i >= total || i > latched.load()) return std::nullopt;
      return i;
    }
    void latch(std::uint64_t i) {
      std::uint64_t cur = latched.load();
      while (i < cur && !latched.compare_exchange_weak(cur, i)) {
      }
    }
  };

  struct Helper {
    std::thread thread;
    bool go = false;       ///< takes part in the current call
    bool running = false;  ///< an attempt is under the watchdog
    bool abandoned = false;
    std::size_t worker = 0;
    std::uint64_t index = 0;
    std::uint32_t attempt = 0;
    Clock::time_point deadline{};
  };
  /// A call's loop; the calling thread runs it with a null helper.  It
  /// returns false when its helper was abandoned, and then touches nothing
  /// of its call after the abandoned run returns.
  using Body = std::function<bool(Helper* self)>;

  /// Waits, on every path out of a call, until its helpers have left it.
  struct Posted {
    explicit Posted(Impl& w) : workers(w) {}
    Posted(const Posted&) = delete;
    Posted& operator=(const Posted&) = delete;
    ~Posted() {
      std::unique_lock<std::mutex> lk(workers.mu);
      workers.event.wait(lk, [this] { return workers.inCall == 0; });
    }
    Impl& workers;
  };

  explicit Impl(std::size_t j) : jobs(resolveJobs(j)) {}

  /// Workers a call over `total` indices can use.
  std::size_t width(std::uint64_t total) const {
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(jobs, std::max<std::uint64_t>(total, 1)));
  }

  const std::size_t jobs;
  std::mutex mu;
  std::condition_variable wake;   ///< to helpers: go or quit
  std::condition_variable event;  ///< to the caller: left, armed, returned
  std::vector<std::unique_ptr<Helper>> helpers;
  std::vector<std::unique_ptr<Helper>> abandoned;
  const Body* body = nullptr;
  std::size_t inCall = 0;  ///< helpers still in the current call
  bool quit = false;
  std::chrono::milliseconds grace{0};

  /// Starts a helper as `worker`; called with mu held.
  std::unique_ptr<Helper> spawn(std::size_t worker, bool go) {
    auto h = std::make_unique<Helper>();
    h->worker = worker;
    h->go = go;
    h->thread = std::thread(
        [self = shared_from_this(), h = h.get()] { self->helperMain(*h); });
    return h;
  }

  void helperMain(Helper& h) {
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
      wake.wait(lk, [&] { return h.go || quit; });
      if (!h.go) return;
      const Body& b = *body;
      lk.unlock();
      if (!b(&h)) return;
      lk.lock();
      h.go = false;
      if (--inCall == 0) event.notify_all();
    }
  }

  /// Posts `b` to the first n helpers, as workers first, first+1, ...
  [[nodiscard]] Posted post(std::size_t n, std::size_t first, const Body& b) {
    std::lock_guard<std::mutex> lk(mu);
    while (helpers.size() < n) helpers.push_back(spawn(0, false));
    body = &b;
    inCall = n;
    for (std::size_t k = 0; k < n; ++k) {
      helpers[k]->go = true;
      helpers[k]->worker = first + k;
    }
    if (n > 0) wake.notify_all();
    return Posted(*this);
  }

  /// Runs index `idx` with retries.  nullopt when the watchdog abandoned
  /// `watched` meanwhile: it delivered the run's timeout, and the call may
  /// be over, so nothing of it is touched again.
  std::optional<experiment::RunObservation> execute(
      const JobFn& fn, const FarmOptions& options,
      detail::Collector& collector, Helper* watched, std::uint64_t idx) {
    std::string error;
    for (std::uint32_t attempt = 1;; ++attempt) {
      if (watched != nullptr) {
        std::lock_guard<std::mutex> lk(mu);
        watched->index = idx;
        watched->attempt = attempt;
        watched->deadline = Clock::now() + options.runTimeout;
        watched->running = true;
        event.notify_all();
      }
      std::optional<experiment::RunObservation> obs;
      try {
        obs = fn(idx);
      } catch (const std::exception& e) {
        error = e.what();
      } catch (...) {
        error = "unknown harness error";
      }
      if (watched != nullptr) {
        std::lock_guard<std::mutex> lk(mu);
        watched->running = false;
        if (watched->abandoned) {
          event.notify_all();  // to a destructor waiting out its grace
          return std::nullopt;
        }
      }
      if (obs) {
        obs->attempts = attempt;
        return obs;
      }
      if (attempt > options.maxRetries) {
        return collector.supervisedRecord(idx, "infra-error", error, attempt);
      }
      std::this_thread::sleep_for(core::backoffDelay(
          detail::retryPolicy(options.retryBackoff), attempt));
    }
  }

  /// The caller's part of a watched run call: until every helper has left
  /// the call, it sleeps to the earliest deadline in flight, delivers each
  /// run past its deadline as a timeout, abandons that run's helper and
  /// starts one replacement.
  void watch(detail::Collector& collector, Cursor& cursor) {
    std::unique_lock<std::mutex> lk(mu);
    while (inCall > 0) {
      Clock::time_point next = Clock::time_point::max();
      const std::size_t expired = abandoned.size();
      for (std::unique_ptr<Helper>& h : helpers) {
        if (!h->go || !h->running) continue;
        if (h->deadline > Clock::now()) {
          next = std::min(next, h->deadline);
          continue;
        }
        h->abandoned = true;
        abandoned.push_back(std::exchange(h, spawn(h->worker, true)));
      }
      if (expired == abandoned.size()) {
        if (next == Clock::time_point::max()) event.wait(lk);
        else event.wait_until(lk, next);
        continue;
      }
      // Only this thread grows `abandoned`, and an abandoned helper's
      // index, attempt and worker no longer change.
      lk.unlock();
      for (std::size_t k = expired; k < abandoned.size(); ++k) {
        const Helper& h = *abandoned[k];
        // A watchdog expiry is a run outcome, not an infra failure: the
        // program (or the tool stack) hung; retrying would hang again.
        if (collector.deliver(collector.supervisedRecord(
                                  h.index, "timeout", "watchdog expired",
                                  h.attempt),
                              h.worker)) {
          cursor.latch(h.index);
        }
      }
      lk.lock();
    }
  }
};

Workers::Workers(std::size_t jobs) : impl_(std::make_shared<Impl>(jobs)) {}

Workers::~Workers() {
  Impl& w = *impl_;
  std::unique_lock<std::mutex> lk(w.mu);
  w.quit = true;
  w.wake.notify_all();
  std::vector<std::unique_ptr<Impl::Helper>> parked = std::move(w.helpers);
  lk.unlock();
  for (const auto& h : parked) h->thread.join();
  lk.lock();
  for (const auto& h : w.abandoned) {
    // Once its run has returned, an abandoned helper ends without mu.
    if (w.event.wait_for(lk, w.grace, [&] { return !h->running; })) {
      h->thread.join();
    } else {
      h->thread.detach();  // truly hung; leak the thread, keep the campaign
    }
  }
}

CampaignResult Workers::run(std::uint64_t total, const JobFn& fn,
                            const FarmOptions& options) {
  Stopwatch clock;
  Impl& w = *impl_;
  detail::Collector collector(total, options);
  Impl::Cursor cursor{total};
  const bool watched = options.runTimeout.count() > 0;
  const Impl::Body loop = [&](Impl::Helper* self) {
    const std::size_t worker = self != nullptr ? self->worker : 0;
    while (!collector.stopped()) {
      const std::optional<std::uint64_t> i = cursor.take();
      if (!i) break;
      if (collector.isDone(*i)) continue;  // delivered by a resumed journal
      std::optional<experiment::RunObservation> obs =
          w.execute(fn, options, collector, watched ? self : nullptr, *i);
      if (!obs) return false;
      if (collector.deliver(std::move(*obs), worker)) cursor.latch(*i);
    }
    return true;
  };
  const std::size_t width = w.width(total);
  if (watched) {
    w.grace = std::max({w.grace, options.runTimeout * 4,
                        std::chrono::milliseconds(500)});
    const Impl::Posted posted = w.post(width, 0, loop);
    w.watch(collector, cursor);
  } else {
    const Impl::Posted posted = w.post(width - 1, 1, loop);
    loop(nullptr);
  }
  CampaignResult cr = collector.finish();
  cr.requested = total;
  cr.model = WorkerModel::Thread;
  cr.workers = width;
  cr.wallSeconds = clock.elapsedSeconds();
  return cr;
}

CandidateScan Workers::scan(
    std::uint64_t total, const std::function<bool(std::uint64_t)>& accept) {
  Impl::Cursor cursor{total};
  std::atomic<std::uint64_t> evaluated{0};
  const Impl::Body loop = [&](Impl::Helper*) {
    while (const std::optional<std::uint64_t> i = cursor.take()) {
      ++evaluated;
      bool accepted = false;
      try {
        accepted = accept(*i);
      } catch (...) {
        // a throwing candidate is a rejected candidate
      }
      if (accepted) cursor.latch(*i);
    }
    return true;
  };
  {
    const Impl::Posted posted = impl_->post(impl_->width(total) - 1, 1, loop);
    loop(nullptr);
  }
  CandidateScan scan;
  scan.evaluated = evaluated.load();
  scan.found = cursor.latched.load() < total;
  scan.index = scan.found ? cursor.latched.load() : 0;
  return scan;
}

CampaignResult runJobs(std::uint64_t total, const JobFn& fn,
                       const FarmOptions& options) {
  if (options.model == WorkerModel::Process &&
      detail::processIsolationSupported()) {
    return detail::runJobsIsolated(total, fn, options);
  }
  return Workers(options.jobs).run(total, fn, options);
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
