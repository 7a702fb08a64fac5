// Measurement helpers of the mtt benchmark: order statistics, an in-memory
// span tracer with self-time accounting, process resource probes, CPU
// pinning, and the one-line JSON result the benchmark prints last.
//
// Everything here is independent of mtt itself, so test_measure.cpp checks
// it without building a workload.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mttbench {

/// The q-quantile (0 <= q <= 1) of `xs` by linear interpolation between
/// the closest ranks (the "type 7" definition: q=0 is the minimum, q=1 the
/// maximum, q=0.5 the median).  Throws std::invalid_argument on an empty
/// sample or q outside [0, 1].
double percentile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) {
  return percentile(std::move(xs), 0.5);
}
double mean(const std::vector<double>& xs);

/// Monotonic nanoseconds (std::chrono::steady_clock).
std::int64_t nowNs();

/// In-memory spans: name, start, end and the enclosing span.  Nothing is
/// written while spans are recorded; callers read the spans back at the
/// end.  Single-threaded: the benchmark calls into mtt from one thread.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
  };

  /// Opens a span nested in the innermost open one; returns its index.
  int begin(std::string name);
  /// Closes span `id`, which must be the innermost open span.
  void end(int id);
  /// Adds a finished span with explicit times (used by the tests).
  int record(std::string name, std::int64_t startNs, std::int64_t endNs,
             int parent);

  const std::vector<Span>& spans() const { return spans_; }
  void clear();

  /// Durations, in microseconds, of every span called `name`.
  std::vector<double> durationsUs(const std::string& name) const;
  /// A span's duration minus the part of its interval covered by its
  /// direct children (overlapping children are counted once).
  std::int64_t selfNs(int id) const;
  /// Self time summed per span name.
  std::map<std::string, std::int64_t> selfNsByName() const;

  /// RAII span; a null tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* t, std::string name)
        : t_(t), id_(t ? t->begin(std::move(name)) : -1) {}
    ~Scope() {
      if (t_) t_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int id_;
  };

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Peak resident set of this process image, MiB (VmHWM).
double peakRssMb();
/// Voluntary + involuntary context switches of this process so far,
/// including those of its finished threads (getrusage RUSAGE_SELF).
std::uint64_t contextSwitches();

/// Confines the calling process to the highest-numbered CPU of its allowed
/// set, so every run of the benchmark lands on the same CPU (and, on most
/// machines, away from CPU 0, which takes more device interrupts).  Threads
/// and processes created afterwards inherit the mask.  Returns the CPU, or
/// -1 when the affinity could not be read or set.
int pinToOneCpu();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's result line: one JSON object with exactly the keys
/// correct, attempted, failed and metrics.  Values keep all 17 significant
/// digits.  Throws std::invalid_argument on a non-finite value or a
/// duplicate metric name, which JSON cannot carry or a reader could not
/// tell apart.
std::string resultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace mttbench
