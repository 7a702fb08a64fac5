// mtt::farm — the campaign execution engine behind every "push of a button".
//
// The paper's component 2 promises that a prepared experiment "can be
// evaluated and compared to alternative approaches" with a script; this
// subsystem makes that scale: a campaign's worker set (farm::Workers) hands
// the seed space out in run order to a few long-lived worker threads (or,
// on POSIX, to a local fleet of forked worker processes for hard crash
// isolation — fleet/local.hpp), supervises every run with one wall-clock
// watchdog, retries infrastructure failures with bounded backoff, and
// records misbehaving runs (timeout / crash / infra-error) as RunStatus
// outcomes instead of letting them abort the campaign.
//
// Observability: each completed run is streamed as one JSONL record
// (seed, status, wall time, events, warnings, outcome, attempts) the moment
// it finishes, plus an optional live progress/throughput line on stderr.
//
// Determinism: records are keyed by run index and folded back in index
// order through experiment::accumulate, so a controlled-mode campaign
// produces results identical to the serial experiment::runExperiment path
// regardless of worker count or model.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/backoff.hpp"
#include "experiment/experiment.hpp"
#include "farm/record_io.hpp"

namespace mtt::farm {

/// How runs are isolated from each other.
enum class WorkerModel : std::uint8_t {
  /// Worker threads in this process (farm::Workers).  Cheapest; a hung
  /// run's thread is abandoned to the watchdog, but a run that crashes the
  /// process takes the campaign with it.
  Thread,
  /// Forked worker processes (POSIX), supervised by a fleet coordinator
  /// over socket pairs.  A run that aborts, segfaults, or hangs kills only
  /// its worker: the parent records the outcome, respawns the worker, and
  /// the campaign continues.  Falls back to Thread where fork() is
  /// unavailable.
  Process,
};

std::string_view to_string(WorkerModel m);

/// One campaign job: produce the observation for run `index`.
/// Must be thread-safe across concurrent indices (experimentJob's is).
using JobFn = std::function<experiment::RunObservation(std::uint64_t index)>;

struct FarmOptions {
  /// Worker count; 0 = hardware concurrency.
  std::size_t jobs = 0;
  /// Per-run wall-clock watchdog; 0 disables it.  A run exceeding the
  /// deadline is recorded as RunStatus::Timeout and its worker is
  /// abandoned (Thread) or killed and respawned (Process).
  std::chrono::milliseconds runTimeout{0};
  /// Extra attempts for runs that fail with a harness error (an exception
  /// out of the job, not a program verdict).  Exhaustion records the run
  /// as RunStatus::InfraError.
  std::size_t maxRetries = 2;
  /// Backoff before the first retry; doubles per subsequent attempt.
  std::chrono::milliseconds retryBackoff{10};
  WorkerModel model = WorkerModel::Thread;
  /// When non-empty, every completed run appends one JSON object line here.
  std::string jsonlPath;
  /// Append to jsonlPath instead of truncating it (multi-campaign drivers
  /// stream every campaign of one invocation into a single file).
  bool jsonlAppend = false;
  /// Live "done/total, runs/s, timeouts, crashes" line on stderr.
  bool progress = false;
  /// Optional early cancellation: once a delivered record satisfies this,
  /// no index above it is dispatched (in-flight runs drain under Thread and
  /// are abandoned under Process).  Used by parallel bug hunts to stop at
  /// the first manifestation, which is the serial scan's.
  std::function<bool(const experiment::RunObservation&)> stopOnRecord;
  /// Maps a run index to its seed, for records the farm must synthesize
  /// itself (timeout / crash / infra-error, where the job produced
  /// nothing).  Defaults to identity.
  std::function<std::uint64_t(std::uint64_t)> seedForIndex;

  // --- durability (see src/farm/journal.hpp) -----------------------------

  /// When non-empty, every completed run appends one checksummed record to
  /// this append-only journal, fsync-batched; a killed campaign can then be
  /// resumed without redoing finished runs.
  std::string journalPath;
  /// Load journalPath before dispatching: journaled runs are delivered from
  /// the journal (not re-executed) and only the missing indices run.  In
  /// controlled mode the merged result is byte-identical to an
  /// uninterrupted campaign for any `jobs`.
  bool resume = false;
  /// Free-text fingerprint of the campaign config (program, tool label,
  /// run count, seed base...).  Its digest is stored in the journal header
  /// and resume refuses a journal whose digest differs — resuming under a
  /// different config would merge incomparable records.
  /// runExperimentFarm fills this automatically.
  std::string journalConfig;
  /// When non-empty (Process model): workers arm the rt flight recorder so
  /// a crashed or timed-out run dumps its partial schedule recording here,
  /// and the parent attaches the dump path to the run's record
  /// (RunObservation::postmortemPath).
  std::string postmortemDir;
  /// Per-worker-process address-space cap in MiB (0 = unlimited).  Turns a
  /// runaway allocation into an isolated worker death instead of a host
  /// OOM.  Process model only.
  std::size_t workerMemLimitMb = 0;
  /// Per-worker-process CPU-seconds cap (0 = unlimited).  Process model
  /// only.
  std::size_t workerCpuLimitSec = 0;
  /// Optional external cancellation latch (e.g. a SIGINT handler): when it
  /// becomes true, no further runs are dispatched and in-flight runs drain,
  /// exactly like stopOnRecord.
  const std::atomic<bool>* stopFlag = nullptr;
  /// Zero the wall-clock fields (wallSeconds, dispatchNsPerEvent) of every
  /// record at delivery.  In controlled mode this makes the JSONL stream
  /// and the journal byte-reproducible across machines and schedulings —
  /// the knob fleet byte-compares (and CI) turn on for both sides of a
  /// distributed-vs-serial comparison.
  bool scrubTiming = false;
};

/// What happened to a campaign, beyond the per-run records.
struct CampaignResult {
  /// Completed-run observations, sorted by runIndex.  Gaps only when the
  /// campaign was cancelled early via stopOnRecord.
  std::vector<experiment::RunObservation> records;
  std::uint64_t requested = 0;
  std::size_t workers = 0;
  WorkerModel model = WorkerModel::Thread;
  std::size_t timeouts = 0;
  std::size_t crashes = 0;
  std::size_t infraErrors = 0;
  std::size_t retries = 0;
  /// Records delivered from the journal on resume instead of re-executed.
  std::size_t resumed = 0;
  /// Journaled infra-error runs skipped on resume: their retry budget is
  /// already exhausted, so they are reported, not re-burned.
  std::size_t quarantined = 0;
  bool stoppedEarly = false;
  /// Non-empty when the campaign terminated abnormally but controllably:
  /// a fleet degraded-mode abort or a journal I/O failure.  Names the fault
  /// and states whether the journal is resumable; CLIs surface it verbatim
  /// and exit nonzero.
  std::string abortDiagnostic;
  double wallSeconds = 0.0;

  double throughput() const {
    return wallSeconds > 0.0
               ? static_cast<double>(records.size()) / wallSeconds
               : 0.0;
  }
};

/// Resolved worker count for an options block (0 → hardware concurrency).
std::size_t resolveJobs(std::size_t jobs);

/// Runs `total` jobs through the farm and returns every record.
/// The generic entry point: experiment E7 uses it for raw outcome
/// distributions; runExperimentFarm builds the experiment flow on top.
CampaignResult runJobs(std::uint64_t total, const JobFn& fn,
                       const FarmOptions& options);

/// The job that runs index i of `spec` (experiment::executeRun) on a tool
/// stack leased from a pool built for spec.tool: each worker reuses a stack
/// and its runtime instead of building them per run.
JobFn experimentJob(const experiment::RunSpec& spec);

/// A farm-executed prepared experiment: the merged (deterministic) result
/// plus the campaign telemetry.
struct ExperimentCampaign {
  experiment::ExperimentResult result;
  CampaignResult campaign;
};

/// Farm-parallel drop-in for experiment::runExperiment: runs spec.runs on
/// the farm and folds the records in run order, so controlled-mode
/// results (and timing-free reports) are identical to the serial path for
/// any worker count or isolation model.
ExperimentCampaign runExperimentFarm(const experiment::ExperimentSpec& spec,
                                     const FarmOptions& options);

// --- the worker set ---------------------------------------------------------

/// Outcome of a Workers::scan call.
struct CandidateScan {
  bool found = false;
  std::uint64_t index = 0;      ///< smallest accepted index (when found)
  std::uint64_t evaluated = 0;  ///< predicate invocations actually performed
};

/// A campaign's worker threads, kept for all its calls (one at a time): at
/// most jobs-1 (0 = hardware concurrency), started lazily, parked between
/// calls.  A call hands out indices 0..total-1 in order from one counter,
/// with the calling thread as worker 0, and never one above the smallest
/// index a stop or an accept has latched.  A thread the watchdog abandoned
/// gets max(4 x runTimeout, 500 ms) at destruction, then is detached.
class Workers {
 public:
  explicit Workers(std::size_t jobs);
  ~Workers();
  Workers(const Workers&) = delete;
  Workers& operator=(const Workers&) = delete;

  /// The Thread-model campaign under `options` (its jobs and model are not
  /// read).  With a runTimeout the caller runs nothing and is the one
  /// watchdog over jobs threads: a run past its deadline is delivered as a
  /// timeout and its thread, which drops its result, is replaced.
  CampaignResult run(std::uint64_t total, const JobFn& fn,
                     const FarmOptions& options);

  /// Deterministic first-accepted-candidate selection: evaluates candidates
  /// 0..total-1 with `accept` (a pure, thread-safe function of its index)
  /// and returns the SMALLEST accepted index, identical for any worker
  /// count — this makes farm-parallel schedule minimization byte-stable.
  /// `evaluated` is exact and minimal at one worker; more workers may run
  /// past the winner.  A predicate that throws counts as a rejection.
  CandidateScan scan(std::uint64_t total,
                     const std::function<bool(std::uint64_t)>& accept);

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

// Record serialization (toJson / encodePipeRecord / decodePipeRecord and
// the field-escaping helpers) lives in farm/record_io.hpp, shared with the
// fleet wire protocol.

// --- internals shared with the fleet ---------------------------------------

namespace detail {

/// True when fork()-based isolation is available on this platform.
bool processIsolationSupported();

/// The options of an experiment campaign, shared by the farm and the
/// fleet: validates the spec's tool and program names, maps run i to seed
/// spec.seedBase + i and, when journaling, derives the journal's campaign
/// identity (so farm and fleet journals of one campaign are
/// interchangeable).
FarmOptions experimentOptions(const experiment::ExperimentSpec& spec,
                              FarmOptions options);

/// Folds a campaign's records, in run order, into the experiment result.
ExperimentCampaign foldExperiment(const experiment::ExperimentSpec& spec,
                                  CampaignResult campaign);

/// The unified run-retry schedule (core::backoffDelay) of farm threads and
/// fleet workers: capped doubling from `initial` (the retryBackoff option),
/// jitter-free — retry timing must be a pure function of the options for
/// byte-stable campaigns.
inline core::BackoffPolicy retryPolicy(std::chrono::milliseconds initial) {
  core::BackoffPolicy p;
  p.initial = initial;
  p.cap = std::chrono::milliseconds(5000);
  p.factor = 2;
  p.jitter = 0.0;
  return p;
}

}  // namespace detail

}  // namespace mtt::farm
