// mttbench: the mtt benchmark binary.
//
//   mttbench --workload hunt|explore|campaign --seed N --seconds S
//            --trace 0|1 [--out DIR] [--quick]
//            [--hunt-seed N] [--campaign-seed N]
//
// --trace 0 sets the workload up several times (each set-up builds the
// workload and runs one warm-up pass), then repeats its fixed pass for S
// seconds and prints the end-to-end metrics.  --trace 1 runs the traced
// passes of all three workloads, the named one first, and prints the
// per-layer metrics; a per-layer self-time table and the tracing overhead
// go to stderr and the spans to DIR/spans-<workload>.tsv.  The last line of
// stdout is always one JSON object (measure.hpp, resultJson).
//
// The process confines itself to one CPU before any work: controlled mode
// runs one managed thread at a time, so one CPU costs no parallelism, and a
// handoff then never waits for the kernel to wake a thread on another CPU.
#include <sys/resource.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "measure.hpp"
#include "workloads.hpp"

namespace {

using namespace mttbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 10;
  int trace = 0;
  Config cfg;
};

std::uint64_t parseU64(const std::string& flag, const char* v) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (*v == '\0' || *v == '-' || *end != '\0' || errno != 0) {
    throw std::invalid_argument(flag + " expects a non-negative integer, got '" +
                                v + "'");
  }
  return x;
}

Args parseArgs(int argc, char** argv) {
  Args a;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--quick") {
      a.cfg.quick = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(f + " expects a value");
    const char* v = argv[++i];
    if (f == "--workload") {
      a.workload = v;
      haveWorkload = true;
    } else if (f == "--seed") {
      a.seed = parseU64(f, v);
    } else if (f == "--seconds") {
      a.seconds = parseU64(f, v);
    } else if (f == "--trace") {
      a.trace = static_cast<int>(parseU64(f, v));
    } else if (f == "--out") {
      a.cfg.outDir = v;
    } else if (f == "--hunt-seed") {
      a.cfg.huntSeed = parseU64(f, v);
    } else if (f == "--campaign-seed") {
      a.cfg.campaignSeed = parseU64(f, v);
    } else {
      throw std::invalid_argument("unknown flag " + f);
    }
  }
  if (!haveWorkload) throw std::invalid_argument("--workload is required");
  bool known = false;
  for (const std::string& n : workloadNames()) known = known || n == a.workload;
  if (!known) {
    throw std::invalid_argument("unknown workload '" + a.workload +
                                "' (valid: hunt, explore, campaign)");
  }
  if (a.seconds < 1 || a.seconds > 600) {
    throw std::invalid_argument("--seconds must be within 1..600");
  }
  if (a.trace != 0 && a.trace != 1) {
    throw std::invalid_argument("--trace must be 0 or 1");
  }
  a.cfg.orderSeed = a.seed;
  return a;
}

double cpuSeconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double secondsSince(std::int64_t t0) {
  return static_cast<double>(nowNs() - t0) / 1e9;
}

// Totals over the passes of one process.  A failed task counts in `failed`
// only; `problems` holds failed checks, which make the result incorrect.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  // Adds a timed pass and checks it repeats the reference pass exactly.
  void add(const PassResult& p, const PassResult& ref,
           const std::string& workload) {
    attempted += p.operations;
    failed += p.failed;
    if (p.digest != ref.digest || p.executions != ref.executions) {
      problems.push_back(workload +
                         ": a pass's verdicts or counts differ from the "
                         "warm-up pass");
    }
  }
};

constexpr int kSetups = 3;
constexpr int kMinPasses = 3;

int runEndToEnd(const Args& a, std::int64_t processStart) {
  std::vector<double> setupS;
  std::unique_ptr<Workload> w;
  PassResult ref;
  Tally tally;
  const int setups = a.cfg.quick ? 1 : kSetups;
  for (int r = 0; r < setups; ++r) {
    const std::int64_t t0 = r == 0 ? processStart : nowNs();
    w.reset();
    w = makeWorkload(a.workload, a.cfg);
    PassResult warm = w->pass();
    setupS.push_back(secondsSince(t0));
    if (r == 0) {
      ref = warm;
    } else if (warm.digest != ref.digest || warm.executions != ref.executions) {
      tally.problems.push_back(a.workload +
                               ": set-ups disagree on verdicts or counts");
    }
  }
  for (const std::string& p : ref.problems) {
    std::fprintf(stderr, "mttbench: failed: %s\n", p.c_str());
  }

  std::vector<double> wallS, cpuS;
  const int minPasses = a.cfg.quick ? 1 : kMinPasses;
  const std::int64_t start = nowNs();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(a.seconds) * 1'000'000'000;
  while (static_cast<int>(wallS.size()) < minPasses || nowNs() < deadline) {
    const std::int64_t t0 = nowNs();
    const double c0 = cpuSeconds();
    PassResult p = w->pass();
    wallS.push_back(secondsSince(t0));
    cpuS.push_back(cpuSeconds() - c0);
    tally.add(p, ref, a.workload);
  }
  w->verify(tally.problems);
  for (const std::string& p : tally.problems) {
    std::fprintf(stderr, "mttbench: %s\n", p.c_str());
  }
  std::fprintf(stderr,
               "mttbench: %s: %zu timed passes, wall_s median %.6f "
               "(min %.6f, max %.6f), cpu_s median %.6f, %llu executions "
               "per pass\n",
               a.workload.c_str(), wallS.size(), median(wallS),
               percentile(wallS, 0.0), percentile(wallS, 1.0), median(cpuS),
               static_cast<unsigned long long>(ref.executions));

  std::vector<Metric> metrics = {
      {"wall_s", median(wallS), "s"},
      {"executions", static_cast<double>(ref.executions), "count"},
      {"setup_s", median(setupS), "s"},
      {"peak_rss_mb", peakRssMb(), "MiB"},
  };
  std::printf("%s\n", resultJson(tally.problems.empty(), tally.attempted,
                                 tally.failed, metrics)
                          .c_str());
  return 0;
}

void dumpSpans(const Tracer& tr, const std::string& path) {
  std::ofstream f(path);
  f << "name\tstart_ns\tend_ns\tparent\n";
  for (const Tracer::Span& s : tr.spans()) {
    f << s.name << '\t' << s.startNs << '\t' << s.endNs << '\t' << s.parent
      << '\n';
  }
}

// Self time per layer (the span-name prefix before the first '.'), per
// traced pass, as a table on stderr.
void printSelfTimes(const std::string& workload, const Tracer& tr,
                    std::size_t passes) {
  std::map<std::string, std::int64_t> byLayer;
  std::int64_t total = 0;
  for (const auto& [name, ns] : tr.selfNsByName()) {
    byLayer[name.substr(0, name.find('.'))] += ns;
    total += ns;
  }
  std::fprintf(stderr, "mttbench: %s traced: self time per layer per pass\n",
               workload.c_str());
  for (const auto& [layer, ns] : byLayer) {
    std::fprintf(stderr, "  %-12s %10.3f ms  %5.1f%%\n", layer.c_str(),
                 static_cast<double>(ns) / 1e6 / static_cast<double>(passes),
                 total > 0 ? 100.0 * static_cast<double>(ns) /
                                 static_cast<double>(total)
                           : 0.0);
  }
}

double metricValue(const std::vector<Metric>& ms, const std::string& name) {
  for (const Metric& m : ms) {
    if (m.name == name) return m.value;
  }
  throw std::logic_error("no metric " + name);
}

// The executeRun split against the whole: medians of the steps, timed back
// to back with executeRun itself, should add up to its median within the
// cost of the copy's own spans.
void printSplitCheck(const std::vector<Metric>& metrics) {
  double split = 0.0;
  for (const char* part :
       {"suite.make_us", "rt.make_us", "experiment.tools_us", "rt.run_us_p50",
        "suite.evaluate_us", "experiment.observe_us"}) {
    split += metricValue(metrics, part);
  }
  const double whole = metricValue(metrics, "experiment.run_us_p50");
  // Cost of one span (two clock reads and a push), from 100000 empty ones.
  Tracer probe;
  const std::int64_t t0 = nowNs();
  for (int k = 0; k < 100000; ++k) probe.end(probe.begin("probe"));
  const double spanUs = static_cast<double>(nowNs() - t0) / 1e5 / 1e3;
  std::fprintf(stderr,
               "mttbench: hunt: executeRun split (sum of step medians) %.3f "
               "us vs experiment.run_us_p50 %.3f us: residual %.3f us; the "
               "copy's 6 spans cost %.3f us\n",
               split, whole, split - whole, 6 * spanUs);
}

int runTraced(const Args& a) {
  std::vector<std::string> order = workloadNames();
  while (order.front() != a.workload) {
    order.push_back(order.front());
    order.erase(order.begin());
  }
  std::vector<Metric> metrics;
  Tally tally;
  const std::int64_t share = static_cast<std::int64_t>(a.seconds) *
                             1'000'000'000 /
                             static_cast<std::int64_t>(order.size());
  for (const std::string& name : order) {
    std::unique_ptr<Workload> w = makeWorkload(name, a.cfg);
    const PassResult ref = w->pass();  // warm-up
    for (const std::string& p : ref.problems) {
      std::fprintf(stderr, "mttbench: failed: %s\n", p.c_str());
    }
    Tracer tr;
    std::vector<double> untracedS;
    std::size_t passes = 0;
    const std::int64_t deadline = nowNs() + share;
    // Untraced and traced passes alternate, so the tracing overhead is a
    // difference of neighbouring passes.
    do {
      const std::int64_t t0 = nowNs();
      tally.add(w->pass(), ref, name);
      untracedS.push_back(secondsSince(t0));
      tally.add(w->tracedPass(tr), ref, name);
      ++passes;
    } while (nowNs() < deadline);
    w->layerMetrics(tr, metrics);
    w->verify(tally.problems);

    const std::vector<double> mirrored = tr.durationsUs(name + ".pass");
    const double untraced = median(untracedS);
    const double traced = median(mirrored) / 1e6;
    std::fprintf(stderr,
                 "mttbench: %s: %zu pass pairs, untraced wall_s %.6f, traced "
                 "wall_s %.6f, tracing overhead %.6f s (%.2f%%)\n",
                 name.c_str(), passes, untraced, traced, traced - untraced,
                 100.0 * (traced - untraced) / untraced);
    if (name == "hunt") printSplitCheck(metrics);
    printSelfTimes(name, tr, passes);
    dumpSpans(tr, (std::filesystem::path(a.cfg.outDir) /
                   ("spans-" + name + ".tsv"))
                      .string());
  }
  for (const std::string& p : tally.problems) {
    std::fprintf(stderr, "mttbench: %s\n", p.c_str());
  }
  std::printf("%s\n", resultJson(tally.problems.empty(), tally.attempted,
                                 tally.failed, metrics)
                          .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t processStart = nowNs();
  Args a;
  try {
    a = parseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mttbench: %s\n", e.what());
    return 2;
  }
  const int cpu = pinToOneCpu();
  if (cpu < 0) {
    std::fprintf(stderr, "mttbench: could not pin to one CPU: %s\n",
                 std::strerror(errno));
  } else {
    std::fprintf(stderr, "mttbench: pinned to CPU %d\n", cpu);
  }
  try {
    std::filesystem::create_directories(a.cfg.outDir);
    return a.trace == 0 ? runEndToEnd(a, processStart) : runTraced(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mttbench: %s\n", e.what());
    return 1;
  }
}
