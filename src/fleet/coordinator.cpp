// Coordinator implementation: a single-threaded poll loop over a listening
// socket (remote fleets) and N worker connections, accepted or adopted
// (local fleets), plus the lease table that makes reassignment and dedup
// possible.
#include "fleet/coordinator.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "core/stats.hpp"
#include "farm/collector.hpp"
#include "farm/record_io.hpp"
#include "fleet/net.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define MTT_FLEET_HAS_SOCKETS 1
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#endif

namespace mtt::fleet {

using Clock = std::chrono::steady_clock;

namespace {
/// Stash for lastFleetCounters (per thread: tests run fleets in parallel).
thread_local FleetCounters g_lastCounters;
}  // namespace

FleetCounters lastFleetCounters() { return g_lastCounters; }

struct Coordinator::Impl {
  struct Conn {
    Socket sock;
    std::uint64_t id = 0;
    std::string peer;  ///< "ip:port" / "unix" — log attribution
    std::string rx;
    bool active = false;  ///< HELLO validated, SPEC sent (or adopted)
    bool adopted = false; ///< a local worker: LocalSupervisor owns it
    bool quarantined = false;
    std::size_t inflight = 0;
    std::size_t infraRecords = 0;
    Clock::time_point lastActivity = Clock::now();
  };

  struct Lease {
    std::vector<RunAssignment> runs;
    std::set<std::uint64_t> remaining;
    std::uint64_t connId = 0;
    Clock::time_point grantedAt;
  };

  experiment::RunSpec base;
  FleetOptions opts;
  std::unique_ptr<Listener> listener;  ///< null for a local coordinator
  LocalSupervisor local;
  std::vector<std::unique_ptr<Conn>> conns;
  std::uint64_t nextConnId = 1;
  std::uint64_t nextLeaseId = 1;
  FleetCounters counters;
  /// Workers ever made active (HELLO validated, or adopted): gates the
  /// first lease on FleetOptions::minWorkers.
  std::size_t workersGreeted = 0;
  bool shutdownDone = false;

  // Cross-batch progress bookkeeping.
  Stopwatch clock;
  double lastPrint = -1.0;
  std::uint64_t totalWanted = 0;
  std::uint64_t totalDelivered = 0;

  // --- per-batch state (reset by runBatch) -------------------------------
  std::unordered_map<std::uint64_t, RunAssignment> wanted;
  std::unordered_set<std::uint64_t> delivered;
  std::deque<std::vector<RunAssignment>> pending;
  std::map<std::uint64_t, Lease> leases;
  std::unordered_map<std::uint64_t, std::uint64_t> indexLease;
  std::unordered_map<std::uint64_t, std::size_t> indexFailures;
  /// Leases granted before this batch are stale: their late records belong
  /// to an earlier batch, whose indices may recur in this one.
  std::uint64_t firstBatchLease = 1;
  BatchResult* batch = nullptr;
  const RecordSink* sink = nullptr;
  const std::function<bool(const experiment::RunObservation&)>* stopOn =
      nullptr;
  bool stopRequested = false;

  // Degraded-mode bookkeeping: the last instant the batch either delivered
  // a record or had a healthy worker to wait on.
  Clock::time_point lastProgress = Clock::now();

  bool externallyStopped() const {
    return opts.farm.stopFlag != nullptr &&
           opts.farm.stopFlag->load(std::memory_order_relaxed);
  }

  /// "worker 3 (127.0.0.1:51442)" — every fleet diagnostic names the
  /// connection id and peer address so failures are attributable from the
  /// coordinator log alone.
  std::string describeConn(const Conn& c) const {
    return "worker " + std::to_string(c.id) + " (" +
           (c.peer.empty() ? "?" : c.peer) + ")";
  }

  /// Campaign-context suffix for ERROR frames: which campaign, which
  /// connection, and (when relevant) which lease — the receiving worker's
  /// log then identifies the failure without coordinator-side correlation.
  std::string errorContext(const Conn& c, std::uint64_t leaseId = 0) const {
    std::string s = " [program=" + base.programName + " " + describeConn(c);
    if (leaseId != 0) s += " lease=" + std::to_string(leaseId);
    return s + "]";
  }

  void sendFrame(Conn& c, FrameType type, const std::string& payload) {
    const std::string bytes = encodeFrame(type, payload);
    std::string err;
    if (!sendAll(c.sock.fd(), bytes, err, "fleet.coord.send")) {
      std::fprintf(stderr, "[fleet] %s send failed: %s\n",
                   describeConn(c).c_str(), err.c_str());
      dropConn(c, "timeout",
               "fleet " + describeConn(c) + " connection lost mid-lease");
      return;
    }
    counters.bytesSent += bytes.size();
  }

  /// Closes a connection and requeues its unfinished leases.  `status` /
  /// `message` describe the cause for indices that exhaust indexGiveUp.
  void dropConn(Conn& c, const char* status, const std::string& message) {
    if (!c.sock.valid()) return;
    c.sock.close();
    if (c.active) --counters.workersActive;
    c.active = false;
    std::vector<experiment::RunObservation> givenUp;
    std::vector<std::uint64_t> ids;
    for (const auto& [id, lease] : leases) {
      if (lease.connId == c.id) ids.push_back(id);
    }
    for (std::uint64_t id : ids) requeueLease(id, status, message, givenUp);
    // A local worker's process is stopped and reaped before its runs are
    // recorded: a hung run's postmortem dump exists only after the drain.
    if (c.adopted && local.lost) local.lost(c.id, givenUp);
    for (experiment::RunObservation& obs : givenUp) {
      deliverRecord(std::move(obs), /*connId=*/0);
    }
  }

  void quarantineConn(Conn& c, const std::string& why) {
    if (c.quarantined) return;
    c.quarantined = true;
    ++counters.workersQuarantined;
    // A local worker's lease timeout is its run's watchdog expiring: a
    // run outcome, recorded as such, not news for the log.
    if (!c.adopted) {
      std::fprintf(stderr, "[fleet] quarantining %s: %s\n",
                   describeConn(c).c_str(), why.c_str());
    }
    if (c.sock.valid()) sendFrame(c, FrameType::Quit, why + errorContext(c));
    dropConn(c, "timeout",
             "fleet " + describeConn(c) + " quarantined (" + why + ")");
  }

  /// Returns the lease's unfinished assignments to the pending queue, or
  /// gives up on indices that keep killing workers: their supervised
  /// records are appended to `givenUp` for the caller to deliver.
  void requeueLease(std::uint64_t leaseId, const char* status,
                    const std::string& message,
                    std::vector<experiment::RunObservation>& givenUp) {
    auto it = leases.find(leaseId);
    if (it == leases.end()) return;
    Lease lease = std::move(it->second);
    leases.erase(it);
    ++counters.leasesReassigned;
    std::vector<RunAssignment> retry;
    for (const RunAssignment& a : lease.runs) {
      if (lease.remaining.find(a.index) == lease.remaining.end()) continue;
      indexLease.erase(a.index);
      const std::size_t failures = ++indexFailures[a.index];
      if (failures >= opts.indexGiveUp) {
        // The farm's supervision semantics: record the failure as a run
        // outcome instead of retrying forever.
        experiment::RunObservation obs;
        obs.runIndex = a.index;
        obs.seed = a.seed;
        obs.status = status;
        obs.failureMessage =
            message + " (" + std::to_string(failures) + " leases)";
        obs.attempts = static_cast<std::uint32_t>(failures);
        givenUp.push_back(std::move(obs));
      } else {
        retry.push_back(a);
      }
    }
    // Front of the queue: reassigned work is the oldest and gates the
    // reorder buffer's contiguous flush.
    if (!retry.empty()) pending.push_front(std::move(retry));
  }

  /// First-delivery filter + batch bookkeeping for one record.
  void deliverRecord(experiment::RunObservation obs, std::uint64_t connId) {
    const std::uint64_t idx = obs.runIndex;
    auto w = wanted.find(idx);
    if (w == wanted.end() || delivered.find(idx) != delivered.end()) {
      ++counters.duplicatesDropped;
      return;
    }
    if (opts.farm.scrubTiming) farm::scrubTimingFields(obs);
    delivered.insert(idx);
    ++totalDelivered;
    lastProgress = Clock::now();
    // Clear the index out of whatever active lease still carries it (a
    // stale worker may deliver work that was since reassigned).
    auto il = indexLease.find(idx);
    if (il != indexLease.end()) {
      auto lt = leases.find(il->second);
      if (lt != leases.end()) {
        lt->second.remaining.erase(idx);
        if (lt->second.remaining.empty()) finishLease(lt->first);
      }
      indexLease.erase(il);
    }
    if (batch != nullptr) {
      batch->retries += obs.attempts > 0 ? obs.attempts - 1 : 0;
      if (sink != nullptr && *sink) {
        (*sink)(obs, static_cast<std::size_t>(connId));
      }
      if (stopOn != nullptr && *stopOn && !stopRequested && (*stopOn)(obs)) {
        stopRequested = true;
      }
      batch->records.emplace(idx, std::move(obs));
    }
  }

  void finishLease(std::uint64_t leaseId) {
    auto it = leases.find(leaseId);
    if (it == leases.end()) return;
    Conn* owner = connById(it->second.connId);
    if (owner != nullptr && owner->inflight > 0) --owner->inflight;
    leases.erase(it);
  }

  Conn* connById(std::uint64_t id) {
    for (auto& c : conns) {
      if (c->id == id) return c.get();
    }
    return nullptr;
  }

  void handleFrame(Conn& c, Frame frame) {
    c.lastActivity = Clock::now();
    switch (frame.type) {
      case FrameType::Hello: {
        std::uint32_t version = 0;
        std::string err;
        if (!decodeHello(frame.payload, version, err)) {
          sendFrame(c, FrameType::Error, err + errorContext(c));
          dropConn(c, "timeout", err);
          return;
        }
        if (version != kProtocolVersion) {
          const std::string msg =
              "protocol version mismatch: coordinator speaks " +
              std::to_string(kProtocolVersion) + ", worker speaks " +
              std::to_string(version);
          sendFrame(c, FrameType::Error, msg + errorContext(c));
          dropConn(c, "timeout", msg);
          return;
        }
        if (c.active) return;  // adopted: no SPEC, leases from the start
        sendFrame(c, FrameType::Spec, encodeSpec(base));
        if (c.sock.valid()) {
          c.active = true;
          ++counters.workersActive;
          ++workersGreeted;
        }
        return;
      }
      case FrameType::Record: {
        std::uint64_t leaseId = 0;
        experiment::RunObservation obs;
        std::string err;
        if (!decodeRecord(frame.payload, leaseId, obs, err)) {
          std::fprintf(stderr, "[fleet] %s: %s\n", describeConn(c).c_str(),
                       err.c_str());
          dropConn(c, "crashed", err + errorContext(c, leaseId));
          return;
        }
        ++counters.recordsStreamed;
        if (leaseId < firstBatchLease) {
          ++counters.duplicatesDropped;  // a cancelled earlier batch's run
          return;
        }
        // Otherwise delivery and lease cleanup are keyed by index.
        if (obs.status == "infra-error") {
          if (++c.infraRecords >= opts.quarantineAfter) {
            // Deliver first — the record itself is valid — then stop
            // trusting this worker with further leases.
            deliverRecord(std::move(obs), c.id);
            quarantineConn(c, std::to_string(c.infraRecords) +
                                  " infra-error records");
            return;
          }
        }
        deliverRecord(std::move(obs), c.id);
        return;
      }
      case FrameType::LeaseDone: {
        std::uint64_t leaseId = 0;
        std::string err;
        if (!decodeLeaseDone(frame.payload, leaseId, err)) {
          dropConn(c, "crashed", err);
          return;
        }
        auto it = leases.find(leaseId);
        if (it == leases.end()) return;  // completed or reassigned already
        if (!it->second.remaining.empty()) {
          // The worker claims completion but records are missing: treat
          // the gap like a lost lease.
          std::vector<experiment::RunObservation> givenUp;
          requeueLease(leaseId, "crashed",
                       "fleet " + describeConn(c) + " completed lease " +
                           std::to_string(leaseId) + " with missing records",
                       givenUp);
          if (c.inflight > 0) --c.inflight;
          for (experiment::RunObservation& obs : givenUp) {
            deliverRecord(std::move(obs), /*connId=*/0);
          }
          return;
        }
        finishLease(leaseId);
        return;
      }
      case FrameType::Heartbeat:
        return;
      case FrameType::Error: {
        std::fprintf(stderr, "[fleet] %s error: %s\n", describeConn(c).c_str(),
                     frame.payload.c_str());
        dropConn(c, "crashed",
                 "fleet " + describeConn(c) + " reported: " + frame.payload);
        return;
      }
      case FrameType::Spec:
      case FrameType::Lease:
      case FrameType::Quit: {
        const std::string msg = "unexpected frame from worker";
        sendFrame(c, FrameType::Error, msg + errorContext(c));
        dropConn(c, "crashed", msg + " (" + describeConn(c) + ")");
        return;
      }
    }
  }

#ifdef MTT_FLEET_HAS_SOCKETS
  void readConn(Conn& c) {
    char buf[64 * 1024];
    for (;;) {
      // All coordinator reads funnel through recvSome: EINTR is retried
      // there, and the "fleet.coord.recv" site exposes the read to the
      // fault-injection seam.
      const RecvResult r =
          recvSome(c.sock.fd(), buf, sizeof buf, "fleet.coord.recv");
      if (r.status == RecvStatus::Data) {
        counters.bytesReceived += static_cast<std::uint64_t>(r.n);
        c.rx.append(buf, r.n);
        continue;
      }
      if (r.status == RecvStatus::WouldBlock) break;
      // EOF or hard error: the worker is gone.
      dropConn(c, "crashed",
               "fleet " + describeConn(c) + " died mid-lease" +
                   (r.err.empty() ? std::string() : " (" + r.err + ")"));
      return;
    }
    while (c.sock.valid()) {
      ParseResult r = tryParseFrame(c.rx);
      if (r.status == ParseStatus::NeedMore) break;
      if (r.status == ParseStatus::Corrupt) {
        std::fprintf(stderr, "[fleet] %s stream corrupt: %s\n",
                     describeConn(c).c_str(), r.error.c_str());
        dropConn(c, "crashed", r.error + " (" + describeConn(c) + ")");
        return;
      }
      c.rx.erase(0, r.consumed);
      handleFrame(c, std::move(r.frame));
    }
  }
#endif

  void grantLeases() {
    if (stopRequested || workersGreeted < opts.minWorkers) return;
    // Round-robin over healthy workers with spare lease slots.
    bool granted = true;
    while (!pending.empty() && granted) {
      granted = false;
      for (auto& cp : conns) {
        if (pending.empty()) break;
        Conn& c = *cp;
        if (!c.sock.valid() || !c.active || c.quarantined) continue;
        if (c.inflight >= opts.maxLeasesPerWorker) continue;
        LeasePayload payload;
        payload.leaseId = nextLeaseId++;
        payload.runs = std::move(pending.front());
        pending.pop_front();
        Lease lease;
        lease.connId = c.id;
        lease.grantedAt = Clock::now();
        lease.runs = payload.runs;
        for (const RunAssignment& a : payload.runs) {
          lease.remaining.insert(a.index);
          indexLease[a.index] = payload.leaseId;
        }
        leases.emplace(payload.leaseId, std::move(lease));
        ++c.inflight;
        ++counters.leasesGranted;
        sendFrame(c, FrameType::Lease, encodeLease(payload));
        if (!c.sock.valid()) continue;  // send failed; lease was requeued
        granted = true;
      }
    }
  }

  /// When a held lease counts as hung: leaseTimeout after the later of
  /// its grant and its worker's last frame.
  Clock::time_point leaseDeadline(const Lease& lease, const Conn& owner) const {
    return std::max(lease.grantedAt, owner.lastActivity) + opts.leaseTimeout;
  }

  void checkLeaseTimeouts() {
    if (opts.leaseTimeout.count() <= 0) return;
    const Clock::time_point now = Clock::now();
    std::vector<Conn*> hung;
    for (auto& [id, lease] : leases) {
      Conn* owner = connById(lease.connId);
      if (owner == nullptr || !owner->sock.valid()) continue;
      if (now > leaseDeadline(lease, *owner)) hung.push_back(owner);
    }
    std::sort(hung.begin(), hung.end());
    hung.erase(std::unique(hung.begin(), hung.end()), hung.end());
    for (Conn* c : hung) {
      quarantineConn(*c, "no record for " +
                             std::to_string(opts.leaseTimeout.count()) +
                             " ms on a held lease");
    }
  }

  void maybeProgress(bool final) {
    if (!opts.farm.progress) return;
    const double elapsed = clock.elapsedSeconds();
    if (!final && elapsed - lastPrint < 0.2) return;
    lastPrint = elapsed;
    const double rate =
        elapsed > 0.0 ? static_cast<double>(totalDelivered) / elapsed : 0.0;
    std::fprintf(
        stderr,
        "\r[fleet] %llu/%llu runs  %.1f runs/s  %zu workers  %zu leases  "
        "%zu reassigned  %zu quarantined  %.2f MiB in%s",
        static_cast<unsigned long long>(totalDelivered),
        static_cast<unsigned long long>(totalWanted), rate,
        counters.workersActive, counters.leasesGranted,
        counters.leasesReassigned, counters.workersQuarantined,
        static_cast<double>(counters.bytesReceived) / (1024.0 * 1024.0),
        final ? "\n" : "");
    std::fflush(stderr);
  }

  /// Poll wait: at most 50 ms, and never past the nearest lease deadline,
  /// so a short lease timeout (a local run watchdog) fires on time.
  int pollTimeoutMs() {
    long long ms = 50;
    if (opts.leaseTimeout.count() <= 0) return static_cast<int>(ms);
    const Clock::time_point now = Clock::now();
    for (const auto& [id, lease] : leases) {
      const Conn* owner = connById(lease.connId);
      if (owner == nullptr || !owner->sock.valid()) continue;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            leaseDeadline(lease, *owner) - now)
                            .count();
      ms = std::min(ms, std::max<long long>(left + 1, 0));
    }
    return static_cast<int>(ms);
  }

  void pollOnce() {
#ifdef MTT_FLEET_HAS_SOCKETS
    std::vector<pollfd> fds;
    // Slot 0 is the listener; a local coordinator has none (fd -1 is
    // skipped by poll).
    fds.push_back(pollfd{listener ? listener->fd() : -1, POLLIN, 0});
    std::vector<Conn*> polled;
    for (auto& cp : conns) {
      if (!cp->sock.valid()) continue;
      fds.push_back(pollfd{cp->sock.fd(), POLLIN, 0});
      polled.push_back(cp.get());
    }
    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                          pollTimeoutMs());
    if (rc <= 0) return;
    if ((fds[0].revents & POLLIN) != 0) {
      for (;;) {
        Socket s = listener->accept();
        if (!s.valid()) break;
        auto conn = std::make_unique<Conn>();
        conn->sock = std::move(s);
        conn->id = nextConnId++;
        conn->peer = peerDescription(conn->sock.fd());
        conn->lastActivity = Clock::now();
        ++counters.workersConnected;
        conns.push_back(std::move(conn));
      }
    }
    for (std::size_t i = 0; i < polled.size(); ++i) {
      if ((fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        readConn(*polled[i]);
      }
    }
    // Compact closed connections (their leases were already requeued).
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const std::unique_ptr<Conn>& c) {
                                 return !c->sock.valid();
                               }),
                conns.end());
#endif
  }
};

Coordinator::Coordinator(experiment::RunSpec base, const FleetOptions& options)
    : impl_(std::make_unique<Impl>()) {
  if (base.policyFactory) {
    throw std::runtime_error(
        "fleet campaigns cannot ship a policyFactory across the wire; "
        "use a named policy (and note corpus-mutation arms are "
        "coordinator-local)");
  }
  if (options.heartbeatInterval.count() <= 0) {
    throw std::runtime_error("--heartbeat-ms must be positive");
  }
  if (options.heartbeatInterval >= options.leaseTimeout) {
    throw std::runtime_error(
        "--heartbeat-ms (" + std::to_string(options.heartbeatInterval.count()) +
        ") must be strictly less than --lease-timeout-ms (" +
        std::to_string(options.leaseTimeout.count()) +
        "): an idle worker must fit at least one heartbeat inside the "
        "lease timeout or it would be quarantined while healthy");
  }
  impl_->base = std::move(base);
  impl_->opts = options;
  impl_->listener = std::make_unique<Listener>(parseAddress(options.listen));
  if (options.onListen) options.onListen(impl_->listener->boundAddress());
}

Coordinator::Coordinator(const FleetOptions& options,
                         LocalSupervisor supervisor)
    : impl_(std::make_unique<Impl>()) {
  impl_->opts = options;
  impl_->local = std::move(supervisor);
}

std::uint64_t Coordinator::adopt(Socket sock, std::string peer) {
  Impl& im = *impl_;
  // Not during a pass over `conns`: replenish runs at the top of a batch
  // turn, before any loop that holds an iterator.
  auto conn = std::make_unique<Impl::Conn>();
  conn->sock = std::move(sock);
  conn->id = im.nextConnId++;
  conn->peer = std::move(peer);
  conn->adopted = true;
  conn->active = true;
  conn->lastActivity = Clock::now();
  ++im.counters.workersConnected;
  ++im.counters.workersActive;
  ++im.workersGreeted;
  const std::uint64_t id = conn->id;
  im.conns.push_back(std::move(conn));
  return id;
}

Coordinator::~Coordinator() {
  try {
    shutdown();
  } catch (...) {
    // Destructor must not throw; the sockets close regardless.
  }
}

std::string Coordinator::address() const {
  return impl_->listener != nullptr ? impl_->listener->boundAddress()
                                    : std::string();
}

const FleetCounters& Coordinator::counters() const { return impl_->counters; }

void Coordinator::shutdown() {
  Impl& im = *impl_;
  if (im.shutdownDone) return;
  im.shutdownDone = true;
  for (auto& cp : im.conns) {
    if (cp->sock.valid()) {
      im.sendFrame(*cp, FrameType::Quit, "campaign complete");
      cp->sock.close();
    }
  }
  im.conns.clear();
  im.listener.reset();
  g_lastCounters = im.counters;
}

Coordinator::BatchResult Coordinator::runBatch(
    const std::vector<RunAssignment>& runs, const RecordSink& sink,
    const std::function<bool(const experiment::RunObservation&)>& stopOn) {
  Impl& im = *impl_;
  if (im.shutdownDone) {
    throw std::runtime_error("fleet coordinator is already shut down");
  }
  BatchResult result;
  if (runs.empty()) return result;

  im.wanted.clear();
  im.delivered.clear();
  im.pending.clear();
  im.leases.clear();
  im.indexLease.clear();
  im.indexFailures.clear();
  im.batch = &result;
  im.sink = &sink;
  im.stopOn = &stopOn;
  im.stopRequested = false;
  im.firstBatchLease = im.nextLeaseId;
  im.lastProgress = Clock::now();
  im.totalWanted += runs.size();

  for (const RunAssignment& a : runs) im.wanted.emplace(a.index, a);
  const std::size_t leaseSize = std::max<std::size_t>(im.opts.leaseSize, 1);
  for (std::size_t i = 0; i < runs.size(); i += leaseSize) {
    im.pending.emplace_back(
        runs.begin() + static_cast<std::ptrdiff_t>(i),
        runs.begin() +
            static_cast<std::ptrdiff_t>(std::min(i + leaseSize, runs.size())));
  }

  while (im.delivered.size() < im.wanted.size()) {
    if (im.stopRequested || im.externallyStopped()) {
      result.stoppedEarly = true;
      break;
    }
    if (!im.pending.empty() && im.local.replenish) im.local.replenish();
    im.grantLeases();
    im.pollOnce();
    im.checkLeaseTimeouts();
    // Degraded mode: a healthy worker counts as progress (it may be deep in
    // a long run), but a fleet with nobody connected and nothing arriving
    // must eventually abort with a diagnostic instead of hanging — the
    // journal keeps every delivered record, so the campaign resumes.
    if (im.counters.workersActive > 0) im.lastProgress = Clock::now();
    if (im.opts.noProgressTimeout.count() > 0 &&
        Clock::now() - im.lastProgress > im.opts.noProgressTimeout) {
      const std::size_t undone = im.wanted.size() - im.delivered.size();
      result.aborted = true;
      result.stoppedEarly = true;
      result.abortDiagnostic =
          "fleet degraded: no active workers and no record for " +
          std::to_string(im.opts.noProgressTimeout.count()) + " ms with " +
          std::to_string(undone) + " of " + std::to_string(im.wanted.size()) +
          " run(s) undone; the campaign journal is resumable";
      std::fprintf(stderr, "\n[fleet] %s\n", result.abortDiagnostic.c_str());
      break;
    }
    im.maybeProgress(false);
  }
  // Active leases of a cancelled batch go stale: their indices leave the
  // tracking tables, and late records for them will be dup-dropped.
  im.pending.clear();
  im.leases.clear();
  im.indexLease.clear();
  for (auto& cp : im.conns) cp->inflight = 0;
  im.maybeProgress(true);
  im.batch = nullptr;
  im.sink = nullptr;
  im.stopOn = nullptr;
  g_lastCounters = im.counters;
  return result;
}

// --- the campaign entry points ---------------------------------------------

farm::CampaignResult serveJobs(
    Coordinator& coordinator, std::uint64_t total,
    const farm::FarmOptions& options,
    const std::function<RunAssignment(std::uint64_t)>& assignment) {
  Stopwatch wall;
  farm::detail::Collector collector(total, options);

  std::vector<RunAssignment> assignments;
  assignments.reserve(total);
  for (std::uint64_t i = 0; i < total; ++i) {
    if (collector.isDone(i)) continue;  // journaled; never re-dispatched
    assignments.push_back(assignment(i));
  }

  // Reorder buffer: records arrive in any order, the collector (journal,
  // JSONL, fold) sees them only in contiguous run-index order.
  std::map<std::uint64_t, std::pair<experiment::RunObservation, std::size_t>>
      held;
  std::uint64_t cursor = 0;
  auto flush = [&] {
    while (cursor < total) {
      if (collector.isDone(cursor)) {
        ++cursor;
        continue;
      }
      auto it = held.find(cursor);
      if (it == held.end()) break;
      collector.deliver(std::move(it->second.first), it->second.second);
      held.erase(it);
      ++cursor;
    }
  };
  Coordinator::RecordSink sink =
      [&](const experiment::RunObservation& obs, std::size_t worker) {
        held.emplace(obs.runIndex, std::make_pair(obs, worker));
        flush();
      };

  // The batch also stops when the collector latches (stop-on-record match,
  // or a journal I/O failure surfaced by the fault seam) — a campaign whose
  // journal can no longer be trusted must terminate promptly, not stream on.
  const std::function<bool(const experiment::RunObservation&)> stopPred =
      [&](const experiment::RunObservation& obs) {
        if (collector.stopped()) return true;
        return options.stopOnRecord && options.stopOnRecord(obs);
      };

  Coordinator::BatchResult br =
      coordinator.runBatch(assignments, sink, stopPred);

  // A cancelled batch leaves non-contiguous stragglers in the buffer;
  // deliver them in index order (the journal stays index-sorted, with the
  // same gaps a stopped farm campaign would leave).
  for (auto& [idx, rec] : held) {
    collector.deliver(std::move(rec.first), rec.second);
  }
  held.clear();

  farm::CampaignResult cr = collector.finish();
  cr.requested = total;
  cr.stoppedEarly = cr.stoppedEarly || br.stoppedEarly;
  if (!br.abortDiagnostic.empty()) cr.abortDiagnostic = br.abortDiagnostic;
  cr.wallSeconds = wall.elapsedSeconds();
  return cr;
}

farm::ExperimentCampaign runExperimentFleet(
    const experiment::ExperimentSpec& spec, const FleetOptions& options) {
  // The farm's journal identity: a fleet journal and a farm journal of the
  // same campaign are interchangeable (resume across the boundary works).
  farm::FarmOptions fopts = farm::detail::experimentOptions(spec, options.farm);
  // The coordinator renders the fleet progress line; the collector's
  // farm-style line would fight it for the same stderr row.
  fopts.progress = false;

  Coordinator coordinator(static_cast<const experiment::RunSpec&>(spec),
                          options);
  farm::CampaignResult cr =
      serveJobs(coordinator, spec.runs, fopts, [&spec](std::uint64_t i) {
        RunAssignment a;
        a.index = i;
        a.seed = spec.seedBase + i;
        return a;
      });
  cr.workers = coordinator.counters().workersConnected;
  coordinator.shutdown();
  return farm::detail::foldExperiment(spec, std::move(cr));
}

}  // namespace mtt::fleet
