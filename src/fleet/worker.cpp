#include "fleet/worker.hpp"

#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/backoff.hpp"
#include "core/fault.hpp"
#include "core/hash.hpp"
#include "experiment/experiment.hpp"
#include "farm/farm.hpp"
#include "farm/record_io.hpp"
#include "fleet/local.hpp"
#include "fleet/net.hpp"
#include "fleet/protocol.hpp"
#include "suite/program.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define MTT_FLEET_HAS_SOCKETS 1
#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#endif

namespace mtt::fleet {

#ifndef MTT_FLEET_HAS_SOCKETS

WorkerStats runWorker(const WorkerOptions&) {
  throw std::runtime_error("mtt::fleet requires POSIX sockets");
}

WorkerStats serveLocal(Socket, const LocalJob&, const WorkerOptions&) {
  throw std::runtime_error("mtt::fleet requires POSIX sockets");
}

#else

namespace {

/// Internal signal: the coordinator vanished mid-send (EPIPE/reset).
/// Handled as an orderly exit, exactly like reading EOF — the coordinator
/// races QUIT delivery against closing the socket, and a worker must not
/// treat losing that race as a crash.
struct ConnectionClosed {
  std::string detail;
};

class WorkerSession {
 public:
  /// `job` null: a remote worker, executing what the SPEC describes.
  WorkerSession(const WorkerOptions& options, Socket sock,
                const LocalJob* job = nullptr)
      : options_(options), sock_(std::move(sock)), job_(job) {}

  WorkerStats run() {
    applyRunLimits(options_.memLimitMb, options_.cpuLimitSec);
    try {
      return serve();
    } catch (const ConnectionClosed&) {
      stats_.exitReason = "coordinator connection closed";
      return stats_;
    }
  }

 private:
  WorkerStats serve() {
    send(FrameType::Hello, encodeHello());
    for (;;) {
      Frame frame;
      if (!nextFrame(frame)) {
        // EOF races QUIT delivery during normal campaign teardown; treat
        // a vanished coordinator as an orderly exit, not a crash.
        stats_.exitReason = "coordinator connection closed";
        return stats_;
      }
      if (stopped()) {
        stats_.exitReason = "stopped by signal";
        return stats_;
      }
      switch (frame.type) {
        case FrameType::Spec:
          adoptSpec(frame.payload);
          break;
        case FrameType::Lease:
          executeLease(frame.payload);
          break;
        case FrameType::Quit:
          stats_.exitReason = frame.payload.empty()
                                  ? "coordinator closed the campaign"
                                  : frame.payload;
          return stats_;
        case FrameType::Error:
          throw std::runtime_error("fleet coordinator rejected this worker: " +
                                   frame.payload);
        case FrameType::Heartbeat:
          break;
        case FrameType::Hello:
        case FrameType::Record:
        case FrameType::LeaseDone: {
          const std::string msg = "unexpected frame from coordinator";
          send(FrameType::Error, msg);
          throw std::runtime_error("fleet worker: " + msg);
        }
      }
    }
  }

  bool stopped() const {
    return options_.stopFlag != nullptr &&
           options_.stopFlag->load(std::memory_order_relaxed);
  }

  void send(FrameType type, const std::string& payload) {
    const std::string bytes = encodeFrame(type, payload);
    std::string err;
    if (!sendAll(sock_.fd(), bytes, err, "fleet.worker.send")) {
      throw ConnectionClosed{err};
    }
    stats_.bytesSent += bytes.size();
  }

  /// Blocks for the next frame, emitting idle heartbeats.  False on EOF.
  /// Throws on read errors and corrupt streams.
  bool nextFrame(Frame& out) {
    for (;;) {
      ParseResult r = tryParseFrame(rx_);
      if (r.status == ParseStatus::Ok) {
        rx_.erase(0, r.consumed);
        out = std::move(r.frame);
        return true;
      }
      if (r.status == ParseStatus::Corrupt) {
        send(FrameType::Error, r.error);
        throw std::runtime_error("fleet worker: coordinator stream corrupt: " +
                                 r.error);
      }
      pollfd p{sock_.fd(), POLLIN, 0};
      const int rc = ::poll(
          &p, 1, static_cast<int>(options_.heartbeatInterval.count()));
      if (stopped()) return false;
      if (rc == 0) {
        // The heartbeat fault site: Stall (or a bare delay) postpones the
        // beat past its cadence, Duplicate sends extras — the coordinator
        // must tolerate both (late beats only matter against leaseTimeout,
        // and HEARTBEAT frames are idempotent).
        const core::FaultDecision fault = core::checkFault(
            core::FaultOp::HeartbeatSend, "fleet.worker.heartbeat", 0);
        if (fault.delay.count() > 0) std::this_thread::sleep_for(fault.delay);
        send(FrameType::Heartbeat, "");
        if (fault.action == core::FaultDecision::Action::Duplicate) {
          const std::size_t extra = std::max<std::size_t>(fault.count, 1);
          for (std::size_t i = 0; i < extra; ++i) {
            send(FrameType::Heartbeat, "");
          }
        }
        continue;
      }
      if (rc < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("fleet worker poll: ") +
                                 std::strerror(errno));
      }
      char buf[64 * 1024];
      const RecvResult rr =
          recvSome(sock_.fd(), buf, sizeof buf, "fleet.worker.recv");
      if (rr.status == RecvStatus::Eof) return false;
      if (rr.status == RecvStatus::Error) {
        // A hard read error (ECONNRESET, an injected sever...) means the
        // connection is unusable, which for a worker is the same situation
        // as an orderly close: exit this session (and let the reconnect
        // loop, when enabled, return the worker to service).
        throw ConnectionClosed{rr.err};
      }
      if (rr.status == RecvStatus::WouldBlock) continue;
      stats_.bytesReceived += static_cast<std::uint64_t>(rr.n);
      rx_.append(buf, rr.n);
    }
  }

  void adoptSpec(const std::string& payload) {
    if (job_ != nullptr) return;  // a local worker runs its own job
    experiment::RunSpec spec;
    std::string err;
    if (!decodeSpec(payload, spec, err)) {
      send(FrameType::Error, err);
      throw std::runtime_error("fleet worker: " + err);
    }
    // Validate on THIS build before accepting work: an unknown program or
    // tool must be one handshake error, not a stream of infra-errors.
    try {
      experiment::validateToolConfig(spec.tool);
      suite::makeProgram(spec.programName);
    } catch (const std::exception& e) {
      send(FrameType::Error, e.what());
      throw std::runtime_error(
          std::string("fleet worker cannot execute this spec: ") + e.what());
    }
    spec_ = std::move(spec);
    stacks_.clear();
    haveSpec_ = true;
  }

  experiment::ToolStack& stackFor(const experiment::ToolConfig& tool) {
    auto it = stacks_.find(tool.noiseName);
    if (it == stacks_.end()) {
      it = stacks_
               .emplace(tool.noiseName, std::make_unique<experiment::ToolStack>(
                                            experiment::makeToolStack(tool)))
               .first;
    }
    return *it->second;
  }

  void executeLease(const std::string& payload) {
    if (!haveSpec_ && job_ == nullptr) {
      const std::string msg = "LEASE before SPEC";
      send(FrameType::Error, msg);
      throw std::runtime_error("fleet worker: " + msg);
    }
    LeasePayload lease;
    std::string err;
    if (!decodeLease(payload, lease, err)) {
      send(FrameType::Error, err);
      throw std::runtime_error("fleet worker: " + err);
    }
    for (const RunAssignment& a : lease.runs) {
      if (stopped()) break;
      experiment::RunObservation obs = executeAssignment(a);
      obs.runIndex = a.index;  // global campaign index, not the local 0
      send(FrameType::Record, encodeRecord(lease.leaseId, obs));
      ++stats_.recordsSent;
    }
    send(FrameType::LeaseDone, encodeLeaseDone(lease.leaseId));
    ++stats_.leases;
  }

  /// One attempt at run `a`: the local job, or the SPEC's run with the
  /// assignment's noise arm and policy substituted.
  experiment::RunObservation execute(const RunAssignment& a) {
    if (job_ != nullptr) return (*job_)(a);
    experiment::RunSpec rs = spec_;
    if (!a.noiseName.empty()) {
      rs.tool.noiseName = a.noiseName;
      rs.tool.noiseOpts.strength = a.strength;
    }
    // Policy-arm substitution: executeRun builds the policy per run from
    // rs.tool.policy, so no stack state changes (stacks stay keyed by noise).
    if (!a.policy.empty()) rs.tool.policy = a.policy;
    rs.seedBase = a.seed;  // executeRun(rs, 0) then runs exactly `seed`
    experiment::ToolStack& stack = stackFor(rs.tool);
    if (stack.noiseMaker() != nullptr) {
      stack.noiseMaker()->setOptions(rs.tool.noiseOpts);
    }
    return experiment::executeRun(rs, 0, stack);
  }

  experiment::RunObservation executeAssignment(const RunAssignment& a) {
    std::string lastError;
    for (std::uint32_t attempt = 1;; ++attempt) {
      try {
        experiment::RunObservation obs = execute(a);
        obs.attempts = attempt;
        ++stats_.runsExecuted;
        return obs;
      } catch (const std::exception& e) {
        lastError = e.what();
      } catch (...) {
        lastError = "unknown harness error";
      }
      if (attempt > options_.maxRetries) {
        experiment::RunObservation obs;
        obs.runIndex = a.index;
        obs.seed = a.seed;
        obs.status = "infra-error";
        obs.failureMessage = lastError;
        obs.attempts = attempt;
        return obs;
      }
      std::this_thread::sleep_for(core::backoffDelay(
          farm::detail::retryPolicy(options_.retryBackoff), attempt));
    }
  }

  const WorkerOptions& options_;
  Socket sock_;
  const LocalJob* job_ = nullptr;
  std::string rx_;
  WorkerStats stats_;
  experiment::RunSpec spec_;
  bool haveSpec_ = false;
  std::map<std::string, std::unique_ptr<experiment::ToolStack>> stacks_;
};

void accumulateStats(WorkerStats& total, const WorkerStats& s) {
  total.leases += s.leases;
  total.runsExecuted += s.runsExecuted;
  total.recordsSent += s.recordsSent;
  total.bytesSent += s.bytesSent;
  total.bytesReceived += s.bytesReceived;
  total.exitReason = s.exitReason;
}

}  // namespace

WorkerStats runWorker(const WorkerOptions& options) {
  WorkerStats total;
  // Reconnect-with-session-resume: a dropped connection ends one session,
  // not the worker.  The coordinator requeues the dropped leases and dedups
  // records by global index, so a fresh HELLO/SPEC handshake resumes the
  // campaign with zero output difference; the only things the worker must
  // NOT reconnect after are QUIT (campaign over), a stop latch, and a
  // coordinator that rejected it (those exceptions still propagate).
  core::BackoffPolicy dialPolicy;
  dialPolicy.initial = std::chrono::milliseconds(50);
  dialPolicy.cap = std::chrono::milliseconds(2000);
  dialPolicy.seed = core::fnv1a64(options.connect);
  core::Backoff dialBackoff(dialPolicy);
  bool everConnected = false;
  std::size_t failedDials = 0;
  for (;;) {
    std::unique_ptr<WorkerSession> session;
    try {
      session = std::make_unique<WorkerSession>(
          options, connectTo(parseAddress(options.connect),
                             options.connectTimeout, options.stopFlag));
    } catch (const std::exception& e) {
      // Dial failure.  On the very first dial (or without reconnect) this
      // is fatal, as it always was; in reconnect mode a bounded run of
      // re-dial failures is how a worker discovers the campaign is over.
      if (!options.reconnect || !everConnected) throw;
      if (options.stopFlag != nullptr &&
          options.stopFlag->load(std::memory_order_relaxed)) {
        total.exitReason = "coordinator connection closed (stop requested "
                           "during reconnect)";
        return total;
      }
      if (++failedDials > options.reconnectAttempts) {
        total.exitReason = "coordinator connection closed (gave up after " +
                           std::to_string(failedDials - 1) +
                           " failed reconnect attempts: " + e.what() + ")";
        return total;
      }
      std::this_thread::sleep_for(dialBackoff.next());
      continue;
    }
    everConnected = true;
    failedDials = 0;
    accumulateStats(total, session->run());
    const bool connectionLost =
        total.exitReason == "coordinator connection closed";
    const bool stopped = options.stopFlag != nullptr &&
                         options.stopFlag->load(std::memory_order_relaxed);
    if (!options.reconnect || !connectionLost || stopped) return total;
    ++total.reconnects;
    std::this_thread::sleep_for(dialBackoff.next());
  }
}

WorkerStats serveLocal(Socket sock, const LocalJob& job,
                       const WorkerOptions& options) {
  return WorkerSession(options, std::move(sock), &job).run();
}

#endif  // MTT_FLEET_HAS_SOCKETS

}  // namespace mtt::fleet
