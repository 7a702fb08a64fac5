// Internal to mtt::farm: the thread-safe sink both worker models feed.
// Owns the JSONL stream, the live progress line, the early-stop latch, and
// the record store that the deterministic merge later folds in run order.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/stats.hpp"
#include "farm/farm.hpp"
#include "farm/journal.hpp"

namespace mtt::farm::detail {

class Collector {
 public:
  Collector(std::uint64_t total, const FarmOptions& options)
      : total_(total), options_(options) {
    const std::uint64_t digest = journalDigest(options_.journalConfig);
    if (options_.resume && !options_.journalPath.empty()) {
      if (preloadFromJournal(digest)) {
        // Torn tail: repair the file before reopening for append, else the
        // next record would be glued onto the partial final line.
        rewriteJournal(options_.journalPath, digest, total_, records_);
      }
    }
    if (!options_.jsonlPath.empty()) {
      jsonl_ = std::fopen(options_.jsonlPath.c_str(),
                          options_.jsonlAppend ? "a" : "w");
      if (jsonl_ == nullptr) {
        throw std::runtime_error("mtt::farm: cannot open JSONL path " +
                                 options_.jsonlPath);
      }
    }
    if (!options_.journalPath.empty()) {
      journal_.open(options_.journalPath, digest, total_,
                    /*append=*/options_.resume);
    }
  }

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  ~Collector() {
    if (jsonl_ != nullptr) std::fclose(jsonl_);
  }

  /// Records one finished run: stores it, streams the JSONL line, updates
  /// the progress display, and evaluates the early-stop predicate.
  ///
  /// Returns true when this record latched the stop.
  ///
  /// A journal write failure (disk full, short write — real or injected)
  /// latches ioError() and requests a stop instead of propagating: worker
  /// threads must not die on an exception, and the record is deliberately
  /// NOT stored, so a resumed campaign re-runs it — the journal never
  /// claims a run it did not durably record.
  bool deliver(experiment::RunObservation obs, std::size_t worker) {
    std::lock_guard<std::mutex> lk(mu_);
    if (ioErrored_) return false;  // journal is unreliable; drop records
    if (options_.scrubTiming) scrubTimingFields(obs);
    try {
      journal_.append(obs);
    } catch (const std::exception& e) {
      ioErrored_ = true;
      ioError_ = std::string("campaign journal write failed: ") + e.what() +
                 "; stopping (the journal tail is repairable and the "
                 "campaign is resumable)";
      std::fprintf(stderr, "\n[farm] %s\n", ioError_.c_str());
      stop_.store(true, std::memory_order_relaxed);
      return true;
    }
    if (obs.status == "timeout") ++timeouts_;
    if (obs.status == "crashed") ++crashes_;
    if (obs.status == "infra-error") ++infraErrors_;
    retries_ += obs.attempts > 0 ? obs.attempts - 1 : 0;
    if (jsonl_ != nullptr) {
      std::string line = toJson(obs);
      // Splice the worker id in as a top-level field before the close.
      line.insert(line.size() - 1, ",\"worker\":" + std::to_string(worker));
      line += '\n';
      std::fputs(line.c_str(), jsonl_);
      std::fflush(jsonl_);
    }
    records_.push_back(std::move(obs));
    maybeProgressLocked(false);
    if (options_.stopOnRecord && !stop_.load(std::memory_order_relaxed) &&
        options_.stopOnRecord(records_.back())) {
      stop_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Non-empty after a journal I/O failure latched the stop.
  std::string ioError() const {
    std::lock_guard<std::mutex> lk(mu_);
    return ioError_;
  }

  bool stopped() const {
    return stop_.load(std::memory_order_relaxed) ||
           (options_.stopFlag != nullptr &&
            options_.stopFlag->load(std::memory_order_relaxed));
  }

  /// True when run `index` was already delivered by a resumed journal and
  /// must not be dispatched again.
  bool isDone(std::uint64_t index) const { return done_.count(index) != 0; }

  /// Final progress line (with newline), then the records sorted by
  /// runIndex and the counts, as a campaign result; the caller fills
  /// requested, workers, model and wallSeconds.
  CampaignResult finish() {
    std::lock_guard<std::mutex> lk(mu_);
    maybeProgressLocked(true);
    std::sort(records_.begin(), records_.end(),
              [](const experiment::RunObservation& a,
                 const experiment::RunObservation& b) {
                return a.runIndex < b.runIndex;
              });
    CampaignResult cr;
    cr.records = std::move(records_);
    cr.timeouts = timeouts_;
    cr.crashes = crashes_;
    cr.infraErrors = infraErrors_;
    cr.retries = retries_;
    cr.resumed = resumed_;
    cr.quarantined = quarantined_;
    cr.stoppedEarly = stopped();
    cr.abortDiagnostic = ioError_;
    return cr;
  }

  /// Seed for a record the farm synthesizes itself (the job produced
  /// nothing — timeout, crash, or exhausted retries).
  std::uint64_t seedFor(std::uint64_t index) const {
    return options_.seedForIndex ? options_.seedForIndex(index) : index;
  }

  experiment::RunObservation supervisedRecord(std::uint64_t index,
                                              const char* status,
                                              std::string message,
                                              std::uint32_t attempts) const {
    experiment::RunObservation o;
    o.runIndex = index;
    o.seed = seedFor(index);
    o.status = status;
    o.failureMessage = std::move(message);
    o.attempts = attempts;
    return o;
  }

 private:
  /// Resume path: load the journal, validate it against this campaign's
  /// config, and adopt its records as already-delivered runs.  Returns
  /// true when the journal tail was torn and the file needs a repair
  /// rewrite before further appends.
  bool preloadFromJournal(std::uint64_t digest) {
    JournalData jd = loadJournal(options_.journalPath);
    // A journal torn inside the header carries no usable identity; treat it
    // as empty (nothing was recorded) rather than mismatched.
    const bool headerless = jd.configDigest == 0 && jd.total == 0;
    if (!headerless) {
      if (jd.configDigest != digest) {
        throw std::runtime_error(
            "journal " + options_.journalPath +
            " was recorded for a different campaign config (digest " +
            std::to_string(jd.configDigest) + " != " +
            std::to_string(digest) +
            "); refusing to merge incomparable records.  Expected config: " +
            options_.journalConfig);
      }
      if (jd.total != total_) {
        throw std::runtime_error(
            "journal " + options_.journalPath + " covers a campaign of " +
            std::to_string(jd.total) + " runs, but this campaign requests " +
            std::to_string(total_) + "; refusing to resume");
      }
    }
    for (experiment::RunObservation& obs : jd.records) {
      if (obs.runIndex >= total_ || !done_.insert(obs.runIndex).second) {
        continue;  // defensive: out-of-range or duplicated index
      }
      if (options_.scrubTiming) scrubTimingFields(obs);
      if (obs.status == "timeout") ++timeouts_;
      if (obs.status == "crashed") ++crashes_;
      if (obs.status == "infra-error") {
        ++infraErrors_;
        ++quarantined_;  // retry budget already exhausted; do not re-burn
      }
      retries_ += obs.attempts > 0 ? obs.attempts - 1 : 0;
      ++resumed_;
      records_.push_back(std::move(obs));
      if (options_.stopOnRecord && !stop_.load(std::memory_order_relaxed) &&
          options_.stopOnRecord(records_.back())) {
        stop_.store(true, std::memory_order_relaxed);
      }
    }
    return jd.tornTail;
  }

  void maybeProgressLocked(bool final) {
    if (!options_.progress) return;
    double elapsed = clock_.elapsedSeconds();
    if (!final && elapsed - lastPrint_ < 0.2) return;
    lastPrint_ = elapsed;
    double rate = elapsed > 0.0
                      ? static_cast<double>(records_.size()) / elapsed
                      : 0.0;
    std::fprintf(stderr,
                 "\r[farm] %zu/%llu runs  %.1f runs/s  "
                 "%zu timeout  %zu crash  %zu infra%s",
                 records_.size(), static_cast<unsigned long long>(total_),
                 rate, timeouts_, crashes_, infraErrors_, final ? "\n" : "");
    std::fflush(stderr);
  }

  const std::uint64_t total_;
  const FarmOptions& options_;
  std::FILE* jsonl_ = nullptr;
  JournalWriter journal_;
  std::unordered_set<std::uint64_t> done_;
  mutable std::mutex mu_;
  std::vector<experiment::RunObservation> records_;
  bool ioErrored_ = false;
  std::string ioError_;
  std::atomic<bool> stop_{false};
  std::size_t timeouts_ = 0;
  std::size_t crashes_ = 0;
  std::size_t infraErrors_ = 0;
  std::size_t retries_ = 0;
  std::size_t resumed_ = 0;
  std::size_t quarantined_ = 0;
  Stopwatch clock_;
  double lastPrint_ = -1.0;
};

}  // namespace mtt::farm::detail
