// E8 — Instrumentation cost and the static-analysis filter (Section 3):
// "If the instrumentor is told some information by the static analyzer, on
// every instrumentation point, this can be used to decide on a subset of
// the points to be instrumented."
//
// Measures event throughput with 0..4 listeners attached, and the effect of
// the escape-analysis filter (suppressing events on thread-local variables)
// on a workload dominated by thread-local accesses.
#include <atomic>
#include <cstdio>

#include "core/stats.hpp"
#include "core/table.hpp"
#include "coverage/coverage.hpp"
#include "experiments.hpp"
#include "model/static.hpp"
#include "race/detectors.hpp"
#include "rt/harness.hpp"
#include "rt/primitives.hpp"
#include "trace/trace.hpp"

namespace mtt::bench {
namespace {

// Workload: 2 threads, each hammering a private variable and occasionally a
// shared one — the common case static filtering exploits.
void workload(rt::Runtime& rt) {
  rt::SharedVar<int> shared(rt, "shared", 0);
  rt::SharedArray<int> privates(rt, "private", 2, 0);
  rt::Mutex m(rt, "m");
  auto worker = [&](std::size_t idx) {
    for (int i = 0; i < 200; ++i) {
      privates.write(idx, privates.read(idx) + 1);
      if (i % 20 == 0) {
        rt::LockGuard g(m);
        shared.write(shared.read() + 1);
      }
    }
  };
  rt::Thread a(rt, "a", [&] { worker(0); });
  rt::Thread b(rt, "b", [&] { worker(1); });
  a.join();
  b.join();
}

/// The statically computed shared set for the workload (what
/// model::escapeAnalysis would produce for its IR model).
std::set<std::string> sharedNames() { return {"shared"}; }

struct Measurement {
  double msPerRun = 0;
  double eventsPerRun = 0;
};

/// Counts events actually dispatched through the (possibly filtered) hook
/// chain — the probe distinguishing emitted from dispatched events.
class DispatchProbe final : public Listener {
 public:
  void onEvent(const Event&) override {
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> count_{0};
};

Measurement measure(bool filtered, int listenerCount, std::size_t runs) {
  OnlineStats ms, events;
  for (std::uint64_t s = 0; s < runs; ++s) {
    rt::NativeRuntime rt;
    race::FastTrackDetector d1;
    race::EraserDetector d2;
    coverage::SwitchPairCoverage d3;
    trace::TraceRecorder d4(rt);
    DispatchProbe probe;
    Listener* listeners[] = {&d1, &d2, &d3, &d4};
    for (int i = 0; i < listenerCount; ++i) rt.hooks().add(listeners[i]);
    rt.hooks().add(&probe);
    if (filtered) {
      rt.setEventFilter(model::makeSharedVarEventFilter(rt, sharedNames()));
    }
    rt::RunOptions o;
    o.seed = s;
    ms.add(bestWall(1, [&] { rt.run(workload, o); }) * 1e3);
    events.add(static_cast<double>(probe.count()));
  }
  return {ms.mean(), events.mean()};
}

}  // namespace

bool runE8() {
  const std::size_t kRuns = 30;
  std::printf("Instrumentation overhead and static filtering (native,\n"
              "%zu runs per row; listeners: fasttrack, eraser, coverage,\n"
              "trace recorder)\n\n",
              kRuns);

  TextTable t("E8 / listener-chain cost and the escape-analysis filter");
  t.header({"listeners", "filter", "avg ms/run", "events dispatched"});
  Measurement base = measure(false, 0, kRuns);
  for (int n : {0, 1, 2, 4}) {
    for (bool filtered : {false, true}) {
      Measurement m = measure(filtered, n, kRuns);
      t.row({std::to_string(n), filtered ? "shared-only" : "full",
             TextTable::num(m.msPerRun, 3),
             TextTable::num(m.eventsPerRun, 0)});
    }
  }
  t.print();
  std::printf("(baseline, no listeners, full instrumentation: %.3f ms)\n",
              base.msPerRun);

  std::printf(
      "\nNote: the filter suppresses *dispatch* of thread-local variable\n"
      "events; with ~95%% of accesses thread-local in this workload the\n"
      "listener cost shrinks roughly proportionally, while every sync event\n"
      "still reaches the tools — the Section 3 information flow from static\n"
      "analysis to the instrumentor.\n");

  // Sanity check printed for the record: filtering must not change detector
  // verdicts on the shared variable.
  rt::NativeRuntime rt;
  race::FastTrackDetector det;
  rt.hooks().add(&det);
  rt.setEventFilter(model::makeSharedVarEventFilter(rt, sharedNames()));
  rt.run(workload, rt::RunOptions{});
  std::printf("\nfiltered-run fasttrack warnings on 'shared': %zu "
              "(expected 0: it is lock-protected)\n",
              det.warningCount());
  return true;
}

}  // namespace mtt::bench
