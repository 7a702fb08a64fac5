#include "fleet/local.hpp"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <stdexcept>

#include "rt/flight_recorder.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define MTT_LOCAL_HAS_FORK 1
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>
#endif

namespace mtt::fleet {

void applyRunLimits(std::size_t memLimitMb, std::size_t cpuLimitSec) {
#ifdef MTT_LOCAL_HAS_FORK
  if (memLimitMb > 0) {
    rlimit rl{};
    rl.rlim_cur = rl.rlim_max = static_cast<rlim_t>(memLimitMb) * 1024 * 1024;
    ::setrlimit(RLIMIT_AS, &rl);
  }
  if (cpuLimitSec > 0) {
    rlimit rl{};
    rl.rlim_cur = rl.rlim_max = static_cast<rlim_t>(cpuLimitSec);
    ::setrlimit(RLIMIT_CPU, &rl);
  }
#else
  (void)memLimitMb;
  (void)cpuLimitSec;
#endif
}

#ifndef MTT_LOCAL_HAS_FORK

LocalFleet::LocalFleet(LocalJob, const farm::FarmOptions&, std::size_t) {
  throw std::runtime_error("mtt::farm: process isolation requires fork()");
}

LocalFleet::~LocalFleet() = default;

#else

namespace {

/// Polls for `pid`'s exit every 10 ms, `tries` times after the first
/// check; true once it is reaped.
bool reapWithin(pid_t pid, int tries) {
  timespec tick{0, 10 * 1000 * 1000};
  for (int i = 0;; ++i) {
    if (::waitpid(pid, nullptr, WNOHANG) == pid) return true;
    if (i >= tries) return false;
    ::nanosleep(&tick, nullptr);
  }
}

void killAndReap(pid_t pid) {
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
}

}  // namespace

LocalFleet::LocalFleet(LocalJob job, const farm::FarmOptions& options,
                       std::size_t workers)
    : job_(std::move(job)),
      options_(options),
      slots_(std::max<std::size_t>(workers, 1)) {
  if (!options_.postmortemDir.empty()) {
    std::filesystem::create_directories(options_.postmortemDir);
  }
  FleetOptions fo;
  fo.leaseSize = 1;
  fo.maxLeasesPerWorker = 1;
  fo.leaseTimeout = options.runTimeout;  // the run watchdog; 0 = none
  fo.indexGiveUp = 1;
  // A job's harness errors are run outcomes (retried in the worker), not
  // a reason to distrust the worker.
  fo.quarantineAfter = std::numeric_limits<std::size_t>::max();
  fo.farm = options;
  fo.farm.progress = false;  // the farm collector renders progress
  LocalSupervisor supervisor;
  supervisor.replenish = [this] { replenish(); };
  supervisor.lost = [this](std::uint64_t connId,
                           std::vector<experiment::RunObservation>& givenUp) {
    lost(connId, givenUp);
  };
  coordinator_ = std::make_unique<Coordinator>(fo, std::move(supervisor));
}

LocalFleet::~LocalFleet() {
  try {
    coordinator_->shutdown();
  } catch (...) {
    // The sockets close regardless; the children are killed below.
  }
  for (Slot& s : slots_) {
    if (s.pid < 0) continue;
    killAndReap(static_cast<pid_t>(s.pid));
    // A dump of a cancelled run belongs to no record.
    std::error_code ec;
    if (!options_.postmortemDir.empty()) {
      std::filesystem::remove(dumpPath(s.pid), ec);
    }
  }
}

std::string LocalFleet::dumpPath(long pid) const {
  if (options_.postmortemDir.empty()) return {};
  return options_.postmortemDir + "/worker" + std::to_string(pid) +
         ".partial";
}

void LocalFleet::replenish() {
  for (Slot& s : slots_) {
    if (s.pid < 0) spawn(s);
  }
}

void LocalFleet::spawn(Slot& slot) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    throw std::runtime_error("mtt::farm: socketpair() failed");
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    throw std::runtime_error("mtt::farm: fork() failed");
  }
  if (pid == 0) {
    // Keep only this worker's end: the siblings' parent ends are not ours.
    ::close(sv[0]);
    for (const Slot& other : slots_) {
      if (other.fd >= 0) ::close(other.fd);
    }
    childMain(sv[1], dumpPath(::getpid()));
  }
  ::close(sv[1]);
  setNonBlocking(sv[0]);
  slot.pid = pid;
  slot.fd = sv[0];
  slot.connId =
      coordinator_->adopt(Socket(sv[0]), "pid " + std::to_string(pid));
}

void LocalFleet::childMain(int fd, const std::string& dump) {
  if (!dump.empty()) {
    // Arm the flight recorder: a crash, or the SIGTERM drain before a
    // watchdog kill, dumps the in-progress schedule for the parent to claim.
    rt::fr::arm(dump.c_str());
    rt::fr::installCrashHandlers();
  }
  WorkerOptions wo;
  wo.maxRetries = options_.maxRetries;
  wo.retryBackoff = options_.retryBackoff;
  wo.memLimitMb = options_.workerMemLimitMb;
  wo.cpuLimitSec = options_.workerCpuLimitSec;
  int code = 0;
  try {
    serveLocal(Socket(fd), job_, wo);
  } catch (...) {
    code = 3;  // a protocol error; the parent records the run it held
  }
  ::_exit(code);  // no atexit handlers or stdio flushes of the parent's state
}

void LocalFleet::lost(std::uint64_t connId,
                      std::vector<experiment::RunObservation>& givenUp) {
  auto slot = std::find_if(slots_.begin(), slots_.end(), [&](const Slot& s) {
    return s.connId == connId;
  });
  if (slot == slots_.end() || slot->pid < 0) return;
  const auto pid = static_cast<pid_t>(slot->pid);
  const std::string dump = dumpPath(slot->pid);
  // The connection is gone, the process may not be: a dead worker is
  // reaped at once; a hung one gets a bounded SIGTERM drain (<= ~500 ms,
  // for its flight recorder to dump) when postmortems are on, then SIGKILL.
  if (!reapWithin(pid, 0)) {
    const bool drained =
        !dump.empty() && ::kill(pid, SIGTERM) == 0 && reapWithin(pid, 50);
    if (!drained) killAndReap(pid);
  }
  *slot = Slot{};
  for (experiment::RunObservation& obs : givenUp) {
    // The farm's words for supervised outcomes, as the thread model uses.
    obs.failureMessage = obs.status == "timeout"
                             ? "watchdog expired"
                             : "worker process died mid-run";
    std::error_code ec;
    if (dump.empty() || !std::filesystem::exists(dump, ec)) continue;
    const std::string dest = options_.postmortemDir + "/run" +
                             std::to_string(obs.runIndex) +
                             ".postmortem.scenario";
    std::filesystem::rename(dump, dest, ec);
    if (!ec) obs.postmortemPath = dest;
  }
  std::error_code ec;
  if (!dump.empty()) std::filesystem::remove(dump, ec);  // claimed by no run
}

#endif  // MTT_LOCAL_HAS_FORK

}  // namespace mtt::fleet
