// The benchmark's three workloads.  Each is a fixed task (the "pass") that
// the benchmark repeats: an untraced pass for the end-to-end metrics, a traced
// pass that wraps every call into an mtt layer in a span, and a set of
// checks made apart from the timed passes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "measure.hpp"

namespace mttbench {

/// Operator-new calls so far in this process (alloc_count.cpp).
std::uint64_t allocationCount();

struct Config {
  /// --seed: permutes the order in which a pass runs its tasks.  The tasks
  /// themselves are fixed by the seeds below, so every exact count is the
  /// same for every --seed.
  std::uint64_t orderSeed = 1;
  /// Base of the hunt workload's seed streams (stream k starts at
  /// huntSeed + k * 1000003).
  std::uint64_t huntSeed = 20030422;
  /// seedBase of the campaign workload's guided campaigns.
  std::uint64_t campaignSeed = 7001;
  /// Reduced-size tasks: the same checks on fewer programs, seconds total.
  bool quick = false;
  /// Directory for journals and the span dump; created if missing.
  std::string outDir = ".bench_build/out";
};

struct PassResult {
  /// Controlled program executions the pass needed.
  std::uint64_t executions = 0;
  /// Tasks attempted (one hunt, one shrink, one exploration, ...).
  std::uint64_t operations = 0;
  /// Tasks whose verdict was wrong or missing (e.g. no bug found in budget).
  std::uint64_t failed = 0;
  /// Canonical text of every verdict and exact count of the pass; two
  /// passes of one workload must produce the same digest.
  std::string digest;
  /// One line per failed task.
  std::vector<std::string> problems;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// The timed task, untraced.
  virtual PassResult pass() = 0;
  /// The same task with a span around every call into an mtt layer; also
  /// gathers the counts behind layerMetrics().
  virtual PassResult tracedPass(Tracer& tracer) = 0;
  /// Checks against computations made apart from the timed passes
  /// (independent engines, reference campaigns).  Appends one line per
  /// failed check.
  virtual void verify(std::vector<std::string>& problems) = 0;
  /// Per-layer metrics of this workload's layers from the traced passes
  /// run so far.
  virtual void layerMetrics(const Tracer& tracer,
                            std::vector<Metric>& out) const = 0;
};

std::vector<std::string> workloadNames();
/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       const Config& cfg);

}  // namespace mttbench
