// mtt::fleet worker — the executor half of the coordinator/worker split.
//
// A worker is one process that connects to a coordinator, receives the
// campaign base spec, and then executes leased runs serially, streaming a
// RECORD frame per finished run.  Scale comes from running more workers
// (possibly on more machines), not from threads inside one worker: a
// single-threaded executor keeps the worker itself the crash-isolation
// boundary — a run that segfaults or hangs takes down only its worker,
// and the coordinator reassigns the lease.
//
// Harness errors inside a run are retried with backoff and surface as
// infra-error records after maxRetries, exactly like the farm's retry
// machinery; the coordinator quarantines workers that stream too many.
//
// The same session also runs in the forked local workers of
// farm::WorkerModel::Process (fleet/local.hpp): there it serves an
// inherited socket-pair end and executes the job closure it inherited at
// fork instead of building an executor from the SPEC.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "experiment/experiment.hpp"
#include "fleet/net.hpp"
#include "fleet/protocol.hpp"

namespace mtt::fleet {

struct WorkerOptions {
  /// Coordinator endpoint: "host:port" or "unix:/path.sock".
  std::string connect;
  /// How long to keep retrying the initial connect — workers are routinely
  /// launched before their coordinator is listening.
  std::chrono::milliseconds connectTimeout{10000};
  /// Farm-style infra retry budget per run.
  std::size_t maxRetries = 2;
  std::chrono::milliseconds retryBackoff{10};
  /// Idle keepalive cadence (no effect while a lease is executing — a
  /// worker cannot heartbeat mid-run, which is why the coordinator's
  /// leaseTimeout must exceed the slowest run).
  std::chrono::milliseconds heartbeatInterval{1000};
  /// Self-applied RLIMIT_AS / RLIMIT_CPU caps (MiB / seconds, 0 = off):
  /// a runaway run becomes an isolated worker death and a reassigned
  /// lease instead of a host OOM.
  std::size_t memLimitMb = 0;
  std::size_t cpuLimitSec = 0;
  /// External stop latch (SIGINT): finish the current run, send what is
  /// done, and disconnect.
  const std::atomic<bool>* stopFlag = nullptr;
  /// Reconnect after a dropped connection (never after QUIT or a stop
  /// latch): the worker re-dials, re-HELLOs, and receives the SPEC again.
  /// The coordinator already requeued the dropped leases, and records are
  /// deduplicated by global index, so a reconnect changes nothing about the
  /// campaign's output — it only returns this worker to service.
  bool reconnect = false;
  /// Consecutive failed reconnect dials before giving up (a vanished
  /// coordinator must not trap the worker in a dial loop forever).
  std::size_t reconnectAttempts = 5;
};

struct WorkerStats {
  std::uint64_t leases = 0;
  std::uint64_t runsExecuted = 0;
  std::uint64_t recordsSent = 0;
  std::uint64_t bytesSent = 0;
  std::uint64_t bytesReceived = 0;
  /// Successful re-dials after a dropped connection (reconnect mode).
  std::uint64_t reconnects = 0;
  /// Why the worker exited ("coordinator closed the campaign", ...).
  std::string exitReason;
};

/// Runs the worker service until the coordinator sends QUIT, the
/// connection drops, or the stop latch fires.  Throws std::runtime_error
/// on connect/handshake failures and on spec validation errors (unknown
/// program or tool names on this build).
WorkerStats runWorker(const WorkerOptions& options);

/// What a local worker executes for one leased run.
using LocalJob =
    std::function<experiment::RunObservation(const RunAssignment&)>;

/// The worker session of a local worker: serves `sock` (already connected
/// to an adopting coordinator) with `job` as the executor, until QUIT or
/// EOF.  `options.connect` and the reconnect fields are ignored.
WorkerStats serveLocal(Socket sock, const LocalJob& job,
                       const WorkerOptions& options);

}  // namespace mtt::fleet
