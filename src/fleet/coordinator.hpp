// mtt::fleet — the campaign coordinator: shards seed ranges into leases,
// streams records back from remote workers, and folds them in global
// run-index order so a fleet campaign's report and journal are
// byte-identical to the single-machine `--jobs 1` run of the same spec.
//
// Determinism argument (the fleet's core claim):
//   1. in controlled mode a RunObservation is a pure function of
//      (program, tool config, seed) — executeRun derives everything else;
//   2. a lease assignment fixes (global index, seed, noise arm), so any
//      worker, any sharding, and any arrival order produce the same record
//      for a given index (wall-clock fields excepted — scrubTiming zeroes
//      them when byte-stable journals are wanted);
//   3. the coordinator holds early-arriving records in a reorder buffer and
//      releases them to the collector only in contiguous index order, so
//      the journal, the JSONL stream, and the experiment::accumulate fold
//      all observe exactly the `--jobs 1` delivery sequence.
//
// Robustness: leases time out and are reassigned; a worker that dies
// mid-lease (EOF) has its unfinished indices requeued; a worker that times
// out or streams repeated infra-errors is quarantined; an index that kills
// `indexGiveUp` workers in a row is recorded as a supervised crashed/
// timeout record instead of livelocking the campaign (the farm's
// supervision semantics, one level up).  Duplicate records — a slow worker
// finishing a lease that was already reassigned — are accepted once and
// dropped thereafter, keyed by global index, so no index is ever lost or
// double-folded.
//
// The same coordinator supervises the forked workers of
// farm::WorkerModel::Process: built without a listener, it adopts
// socket-pair ends instead of accepting connections, and a
// LocalSupervisor stops, reaps and replaces the child processes
// (fleet/local.hpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "experiment/experiment.hpp"
#include "farm/farm.hpp"
#include "fleet/net.hpp"
#include "fleet/protocol.hpp"

namespace mtt::fleet {

/// Fleet-level observability, threaded into the progress line and exposed
/// to the CLI epilogue.
struct FleetCounters {
  std::size_t workersConnected = 0;    ///< connections ever accepted
  std::size_t workersActive = 0;       ///< currently connected and healthy
  std::size_t workersQuarantined = 0;  ///< timed out / repeated infra-errors
  std::size_t leasesGranted = 0;
  std::size_t leasesReassigned = 0;    ///< requeued after death/timeout
  std::uint64_t recordsStreamed = 0;   ///< RECORD frames received
  std::uint64_t duplicatesDropped = 0; ///< stale/duplicate records ignored
  std::uint64_t bytesReceived = 0;     ///< wire bytes in (frames included)
  std::uint64_t bytesSent = 0;         ///< wire bytes out
};

struct FleetOptions {
  /// Endpoint to listen on: "host:port" (port 0 = ephemeral) or
  /// "unix:/path.sock".
  std::string listen = "127.0.0.1:0";
  /// Runs per lease: the sharding granularity.  Small leases spread work
  /// and shrink the reassignment blast radius; large leases amortize
  /// framing.
  std::size_t leaseSize = 16;
  /// Bounded in-flight leases per worker (backpressure): a worker never
  /// holds more than this many unfinished leases, so a slow worker cannot
  /// starve the rest of the fleet of work.
  std::size_t maxLeasesPerWorker = 2;
  /// A worker whose leases see no record for this long is presumed hung:
  /// its leases are reassigned and it is quarantined.  Must comfortably
  /// exceed the slowest single run (a worker cannot heartbeat mid-run).
  std::chrono::milliseconds leaseTimeout{30000};
  /// The idle-heartbeat cadence workers are expected to run
  /// (WorkerOptions::heartbeatInterval).  The Coordinator constructor
  /// rejects a configuration where this does not fit strictly inside
  /// leaseTimeout — an idle worker that cannot fit one heartbeat into the
  /// timeout window would be quarantined for being healthy.
  std::chrono::milliseconds heartbeatInterval{1000};
  /// Degraded mode: when the fleet has no active workers and no record has
  /// arrived for this long, the batch aborts with a diagnostic instead of
  /// waiting forever — undispatched leases stay queued in the journal's
  /// sense (their indices are simply absent), so the campaign resumes
  /// cleanly.  0 disables the deadline (a coordinator may legitimately wait
  /// indefinitely for its first worker).
  std::chrono::milliseconds noProgressTimeout{0};
  /// Grant no lease until this many workers have sent HELLO (or been
  /// adopted); from then on leases flow to whoever is connected.  0 grants
  /// to the first worker that arrives.  A fleet that never reaches the
  /// count waits (noProgressTimeout fires only while no worker is active).
  std::size_t minWorkers = 0;
  /// Quarantine a worker after this many infra-error records from it.
  std::size_t quarantineAfter = 3;
  /// Give up on an index after its lease died this many times and record
  /// it as a supervised crashed/timeout run — a poison run that kills
  /// every worker it touches must not livelock the campaign.
  std::size_t indexGiveUp = 3;
  /// Invoked once with the bound endpoint (e.g. "127.0.0.1:41833") as soon
  /// as the listener is up — how a CLI announces an ephemeral port to the
  /// operator before any worker can have connected.
  std::function<void(const std::string&)> onListen;
  /// Farm passthrough: jsonlPath/jsonlAppend, journalPath/resume/
  /// journalConfig, progress (rendered as the fleet progress line),
  /// stopOnRecord, stopFlag, and scrubTiming are honored.  jobs/model/
  /// runTimeout are meaningless here (execution happens in the workers).
  farm::FarmOptions farm;
};

/// Supervision of workers the coordinator's owner started itself and handed
/// over with Coordinator::adopt() — the forked local workers behind
/// farm::WorkerModel::Process (fleet/local.hpp).  A remote worker is gone
/// once its connection is; a local one is a child process that must also
/// be stopped, reaped and, while work remains, replaced.
struct LocalSupervisor {
  /// Called on each turn of a batch while runs wait for a lease: start and
  /// adopt() workers for the empty slots.
  std::function<void()> replenish;
  /// Called once when an adopted worker's connection is dropped (EOF, lease
  /// timeout, protocol error): stop and reap its process.  `givenUp` holds
  /// the supervised crashed/timeout records of the runs it took down, not
  /// yet delivered; the supervisor may amend them (message, postmortem).
  std::function<void(std::uint64_t connId,
                     std::vector<experiment::RunObservation>& givenUp)>
      lost;
};

/// The long-lived coordinator service.  One instance may execute many
/// batches (the guided campaign loop); workers connect and disconnect
/// freely across batches.
class Coordinator {
 public:
  /// Validates the base spec (no policyFactory — it cannot cross the
  /// wire), binds the listen endpoint, and starts accepting workers.
  /// Throws std::runtime_error on configuration or socket errors.
  Coordinator(experiment::RunSpec base, const FleetOptions& options);
  /// A coordinator without a listener: it serves only adopted workers,
  /// which execute their own job instead of a SPEC.  `options.listen`,
  /// `heartbeatInterval` and `noProgressTimeout` are ignored, and a
  /// leaseTimeout of 0 disables lease timeouts.
  Coordinator(const FleetOptions& options, LocalSupervisor supervisor);
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// The bound endpoint, e.g. "127.0.0.1:41833" after binding port 0.
  std::string address() const;

  /// Takes over one end of a connected socket pair whose other end a local
  /// worker serves.  The worker is trusted (it is this program): it gets
  /// leases at once, without a SPEC.  Returns its connection id.  Call it
  /// only from LocalSupervisor::replenish.
  std::uint64_t adopt(Socket sock, std::string peer);

  struct BatchResult {
    /// First-delivery records keyed by global run index.
    std::map<std::uint64_t, experiment::RunObservation> records;
    bool stoppedEarly = false;
    std::size_t retries = 0;  ///< sum of (attempts - 1) over records
    /// Degraded-mode exit: the noProgressTimeout deadline fired with runs
    /// still owed.  `abortDiagnostic` names the cause (and the undone run
    /// count); the campaign journal remains resumable.
    bool aborted = false;
    std::string abortDiagnostic;
  };

  /// Arrival-order record callback (before any reorder buffering); the
  /// std::size_t is the delivering worker's connection id.
  using RecordSink =
      std::function<void(const experiment::RunObservation&, std::size_t)>;

  /// Executes one batch of assignments across the connected workers,
  /// waiting for late joiners when none are connected.  Returns when every
  /// assignment has a record (delivered or supervised) or a stop condition
  /// fired.  `sink` observes records in arrival order; `stopOn` cancels
  /// the batch once a record satisfies it (in-flight leases are dropped).
  BatchResult runBatch(
      const std::vector<RunAssignment>& runs, const RecordSink& sink = {},
      const std::function<bool(const experiment::RunObservation&)>& stopOn =
          {});

  /// Sends QUIT to every connected worker and closes the endpoint.
  /// Idempotent; the destructor calls it.
  void shutdown();

  const FleetCounters& counters() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Serves runs 0..total-1 of one campaign through `coordinator` — minus
/// the runs a resumed journal already holds — and folds the records through
/// the farm's collector (journal, JSONL, progress, stop rules) in run-index
/// order, so the journal and the JSONL stream are those of a `--jobs 1`
/// farm campaign.  `assignment(i)` says what run i executes.  The caller
/// fills CampaignResult::workers and ::model.
farm::CampaignResult serveJobs(
    Coordinator& coordinator, std::uint64_t total,
    const farm::FarmOptions& options,
    const std::function<RunAssignment(std::uint64_t)>& assignment);

/// Fleet-parallel drop-in for farm::runExperimentFarm: serves spec.runs to
/// whatever workers connect to options.listen and folds the records
/// deterministically.  Supports journal resume (the same MTTJOURNAL file
/// and config digest as the farm — a campaign may be resumed across the
/// farm/fleet boundary in either direction).
farm::ExperimentCampaign runExperimentFleet(
    const experiment::ExperimentSpec& spec, const FleetOptions& options);

/// The counters of the last coordinator shut down on this thread: a
/// runExperimentFleet call (whose coordinator object is not exposed), or
/// the local fleet of an isolated farm or guided campaign.
FleetCounters lastFleetCounters();

}  // namespace mtt::fleet
