// mtt::fleet local workers — farm::WorkerModel::Process.
//
// An isolated campaign is a fleet campaign whose workers are forked
// children.  Each child serves the fleet worker session over one end of a
// socket pair, executing the job closure it inherited at fork (so any
// farm::JobFn works, and guided campaigns keep their mutation witnesses);
// a listener-less Coordinator adopts the other ends and supervises them
// like remote workers, with one run per lease, one lease per worker, lease
// timeout = runTimeout, and a crashed/timeout record after the first
// worker a run takes down.  LocalFleet keeps only what a child process
// needs: fork on demand (the coordinator has no threads), respawn while
// work remains, a SIGTERM drain then SIGKILL for a hung child, the worker
// rlimits, and the hand-over of a flight-recorder dump as
// run<idx>.postmortem.scenario.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "farm/farm.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/worker.hpp"

namespace mtt::fleet {

/// Applies RLIMIT_AS / RLIMIT_CPU caps (MiB / seconds, 0 = unlimited) to
/// the calling process, so a runaway run kills only its worker.  Used by
/// local and remote workers.  No-op off POSIX.
void applyRunLimits(std::size_t memLimitMb, std::size_t cpuLimitSec);

class LocalFleet {
 public:
  /// Up to `workers` forked workers executing `job`, supervised under
  /// `options` (runTimeout, maxRetries, retryBackoff, postmortemDir, the
  /// worker limits, stopFlag, scrubTiming).  Forks nothing yet: workers
  /// start when a batch has runs to lease.
  LocalFleet(LocalJob job, const farm::FarmOptions& options,
             std::size_t workers);
  /// Ends the campaign: QUIT to every worker, then SIGKILL and reap (a
  /// worker still inside a cancelled run would otherwise finish it).
  ~LocalFleet();
  LocalFleet(const LocalFleet&) = delete;
  LocalFleet& operator=(const LocalFleet&) = delete;

  Coordinator& coordinator() { return *coordinator_; }

 private:
  struct Slot {
    long pid = -1;
    int fd = -1;  ///< the parent's end, owned by the coordinator
    std::uint64_t connId = 0;
  };

  void replenish();
  void spawn(Slot& slot);
  [[noreturn]] void childMain(int fd, const std::string& dumpPath);
  void lost(std::uint64_t connId,
            std::vector<experiment::RunObservation>& givenUp);
  std::string dumpPath(long pid) const;

  LocalJob job_;
  farm::FarmOptions options_;
  std::vector<Slot> slots_;
  std::unique_ptr<Coordinator> coordinator_;
};

}  // namespace mtt::fleet
