// E13 — event-loop runtime overhead: callbacks/second through the
// instrumented mtt::evloop::EventLoop versus a bare std::function dispatch
// loop, in both runtime modes.
//
// Three configurations run the same workload shape (waves of trivial
// callbacks, drained between waves):
//
//   bare        — a std::vector<std::function> drained by a plain loop; no
//                 runtime, no instrumentation.  The floor.
//   native      — EventLoop on NativeRuntime: every callback is a real
//                 tasklet thread racing for the slot semaphore, with the six
//                 task-lifecycle events emitted per callback.
//   controlled  — EventLoop on ControlledRuntime: every callback boundary is
//                 a scheduling decision of the cooperative scheduler.
//
// The interesting numbers are the overhead multipliers: how much a
// tool-ready, replayable callback dispatch costs relative to the bare loop.
// Results go to stdout and BENCH_evloop.json.
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/table.hpp"
#include "evloop/event_loop.hpp"
#include "experiments.hpp"
#include "rt/controlled_runtime.hpp"
#include "rt/native_runtime.hpp"

namespace mtt::bench {
namespace {

struct Row {
  std::string config;
  std::uint64_t callbacks = 0;
  double seconds = 0.0;
  double perSec() const { return callbacks / seconds; }
  double nsPer() const { return seconds * 1e9 / static_cast<double>(callbacks); }
};

/// The per-callback payload: small but not empty, so the baseline is not
/// optimized to nothing.
volatile std::uint64_t g_sink = 0;
void payload() { g_sink = g_sink + 1; }

Row benchBare(std::uint64_t callbacks) {
  std::vector<std::function<void()>> queue;
  queue.reserve(1024);
  return Row{"bare", callbacks, bestWall(1, [&] {
    std::uint64_t done = 0;
    while (done < callbacks) {
      for (int i = 0; i < 1024 && done + queue.size() < callbacks; ++i) {
        queue.push_back(payload);
      }
      for (auto& fn : queue) {
        fn();
        ++done;
      }
      queue.clear();
    }
  })};
}

/// Posts `callbacks` trivial tasks in bounded waves (each post is a live
/// tasklet until it runs, so the wave keeps thread counts sane) and drains.
void waves(rt::Runtime& rt, std::uint64_t callbacks, std::uint64_t wave) {
  evloop::EventLoop loop(rt, "bench.loop");
  std::uint64_t posted = 0;
  while (posted < callbacks) {
    std::uint64_t n = callbacks - posted < wave ? callbacks - posted : wave;
    for (std::uint64_t i = 0; i < n; ++i) loop.post(payload);
    loop.drain();
    posted += n;
  }
  if (loop.stats().executed != callbacks) rt.fail("lost callbacks");
}

/// One instrumented run of `callbacks` callbacks on `rt`.
Row benchLoop(const char* config, rt::Runtime& rt, std::uint64_t callbacks,
              const rt::RunOptions& o) {
  rt::RunResult res;
  Row r{config, callbacks, bestWall(1, [&] {
          res = rt.run([&](rt::Runtime& rr) { waves(rr, callbacks, 64); }, o);
        })};
  if (!res.ok()) {
    throw std::runtime_error(r.config + " run failed: " + res.failureMessage);
  }
  return r;
}

}  // namespace

bool runE13() {
  rt::RunOptions o;
  o.programName = "e13_evloop";
  std::vector<Row> rows;
  rows.push_back(benchBare(2'000'000));
  rt::NativeRuntime native;
  rows.push_back(benchLoop("native", native, 20'000, o));
  rt::ControlledRuntime controlled;
  o.maxSteps = 50'000'000;
  rows.push_back(benchLoop("controlled", controlled, 20'000, o));

  const double bareNs = rows[0].nsPer();
  TextTable t("E13 / instrumented event loop vs bare std::function loop");
  t.header({"config", "callbacks", "callbacks/sec", "ns/callback", "x bare"});
  std::vector<Json> json;
  bool sane = true;  // every configuration actually dispatched callbacks
  for (const Row& r : rows) {
    t.row({r.config, std::to_string(r.callbacks),
           TextTable::num(r.perSec(), 0), TextTable::num(r.nsPer(), 1),
           TextTable::num(r.nsPer() / bareNs, 1)});
    json.push_back(Json::object(
        {{"config", r.config}, {"callbacks", r.callbacks},
         {"per_sec", r.perSec()}, {"ns_per_callback", r.nsPer()},
         {"x_bare", r.nsPer() / bareNs}}));
    sane = sane && r.seconds > 0.0 && r.callbacks > 0;
  }
  t.print();

  std::printf(
      "\nthe multiplier buys: per-callback lifecycle events for every "
      "attached tool,\nreplayable dispatch order (controlled), and noise "
      "injection points (native)\n");
  saveJson("E13", "evloop", {{"rows", Json::array(json)}});
  return sane;
}

}  // namespace mtt::bench
