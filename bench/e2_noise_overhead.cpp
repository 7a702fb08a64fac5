// E2 — Noise makers compared on "performance overhead" (Section 2.2: "Two
// noise makers can be compared to each other with regard to the performance
// overhead and the likelihood of uncovering bugs"; E1 covers the latter).
//
// One fixed, race-free workload (so noise changes nothing semantically) per
// heuristic, controlled and native, at fixed run counts: runs involve real
// thread creation (and, for the native sleep heuristics, real delays), so
// 200 controlled and 60 native runs a row are enough for the comparison.
#include <cstdio>
#include <string>

#include "core/table.hpp"
#include "experiments.hpp"
#include "noise/noise.hpp"
#include "rt/harness.hpp"
#include "rt/primitives.hpp"

namespace mtt::bench {
namespace {

void workload(rt::Runtime& rt) {
  rt::SharedVar<int> counter(rt, "counter", 0);
  rt::Mutex m(rt, "m");
  auto inc = [&] {
    for (int i = 0; i < 50; ++i) {
      rt::LockGuard g(m);
      counter.write(counter.read() + 1);
    }
  };
  rt::Thread a(rt, "a", inc), b(rt, "b", inc);
  a.join();
  b.join();
}

/// One row: `runs` seeded runs of the workload under `heuristic`.
void row(TextTable& t, RuntimeMode mode, const std::string& heuristic,
         std::size_t runs) {
  std::uint64_t events = 0;
  const double ns = nsPerOp(runs, [&](std::size_t seed) {
    std::unique_ptr<rt::Runtime> rt;
    noise::NoiseOptions no;
    no.strength = 0.25;
    if (mode == RuntimeMode::Native) {
      rt = std::make_unique<rt::NativeRuntime>();
      no.maxSleepNative = 200;
    } else {
      rt = std::make_unique<rt::ControlledRuntime>();
    }
    auto nm = noise::makeNoise(heuristic, *rt, no);
    rt->hooks().add(nm.get());
    rt::RunOptions o;
    o.seed = seed;
    rt::RunResult r = rt->run(workload, o);
    events += r.events;
    return static_cast<std::uint64_t>(r.status);
  });
  t.row({mode == RuntimeMode::Native ? "native" : "controlled", heuristic,
         std::to_string(runs), TextTable::num(ns / 1e3, 1),
         TextTable::num(static_cast<double>(events) / (ns * runs) * 1e3, 2) +
             "M"});
}

}  // namespace

bool runE2() {
  TextTable t("E2 / time per run of a race-free workload (2 x 50 locked "
              "increments)");
  t.header({"mode", "noise", "runs", "us/run", "events/s"});
  for (const char* h : {"none", "yield", "sleep", "mixed",
                        "coverage-directed"}) {
    row(t, RuntimeMode::Controlled, h, 200);
  }
  for (const char* h : {"none", "yield", "sleep", "mixed"}) {
    row(t, RuntimeMode::Native, h, 60);
  }
  t.print();
  std::printf(
      "\nExpected shape: none < yield < mixed < sleep; the native sleep\n"
      "heuristics are dominated by their real delays.\n");
  return true;
}

}  // namespace mtt::bench
