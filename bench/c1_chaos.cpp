// C1 — the fault-injection seam's price tag.  The chaos contract is that
// production campaigns pay nothing measurable for the seam: with no
// injector installed, core::checkFault is one relaxed atomic load and an
// immediate return.  This bench pins a number on that claim, and on the
// other side of the trade — the per-operation cost of an installed
// FaultPlan (mutex + per-site counter + deterministic draw), which every
// instrumented I/O site pays during a chaos campaign.
//
// Expected shape: the uninstalled check in low single-digit nanoseconds
// (it must be invisible next to a syscall), the installed plan within a
// couple orders of magnitude of that — tens of millions of decisions per
// second, far above any realistic campaign's I/O rate.
#include <cstdio>

#include "chaos/chaos.hpp"
#include "core/fault.hpp"
#include "experiments.hpp"

namespace mtt::bench {

bool runC1() {
  constexpr std::size_t kIters = 20'000'000;
  const char* kSites[] = {"fleet.coord.send", "fleet.worker.recv",
                          "farm.journal.append", "core.atomic_file.write"};

  std::printf("%zu ops per row\n\n", kIters);

  // 1. The production fast path: no injector installed.
  const double bare = nsPerOp(kIters, [&](std::size_t i) {
    const core::FaultDecision d = core::checkFault(
        core::FaultOp::NetSend, kSites[i & 3], 64);
    return static_cast<std::uint64_t>(d.action);
  });
  std::printf("  checkFault, no injector:      %7.2f ns/op\n", bare);

  // 2. An installed plan that matches ops but almost never triggers — the
  // steady-state cost a chaos campaign pays at every I/O site.
  {
    chaos::FaultPlan plan(chaos::parsePlan("sever:prob=0.000001"), 1);
    core::FaultScope scope(&plan);
    const double installed = nsPerOp(kIters, [&](std::size_t i) {
      const core::FaultDecision d = core::checkFault(
          core::FaultOp::NetSend, kSites[i & 3], 64);
      return static_cast<std::uint64_t>(d.action);
    });
    std::printf("  checkFault, FaultPlan (miss): %7.2f ns/op  (%.0fx bare)\n",
                installed, installed / (bare > 0 ? bare : 1));
  }

  // 3. A multi-rule plan where every op walks the whole rule list — the
  // worst case the plan grammar can configure against one site.
  {
    chaos::FaultPlan plan(
        chaos::parsePlan("sever:prob=0+stall:prob=0+short-read:prob=0+"
                         "disk-full:site=nowhere+fsync-fail:site=nowhere"),
        1);
    core::FaultScope scope(&plan);
    const double wide = nsPerOp(kIters, [&](std::size_t i) {
      const core::FaultDecision d = core::checkFault(
          core::FaultOp::NetRecv, kSites[i & 3], 128);
      return static_cast<std::uint64_t>(d.action);
    });
    std::printf("  checkFault, 5-rule plan:      %7.2f ns/op\n", wide);
  }

  // 4. Decision throughput when faults actually fire (trace bookkeeping
  // included) — bounded iteration count so the trace stays small.
  {
    constexpr std::size_t kHot = 200'000;
    chaos::FaultPlan plan(chaos::parsePlan("stall:prob=1,ms=0"), 1);
    core::FaultScope scope(&plan);
    const double hot = nsPerOp(kHot, [&](std::size_t i) {
      const core::FaultDecision d = core::checkFault(
          core::FaultOp::NetSend, kSites[i & 3], 64);
      return static_cast<std::uint64_t>(d.action);
    });
    std::printf("  checkFault, always-trigger:   %7.2f ns/op  (%zu ops)\n",
                hot, kHot);
    const chaos::FaultPlanStats stats = plan.stats();
    std::printf("\n  sanity: %llu of %llu ops triggered\n",
                static_cast<unsigned long long>(stats.triggers),
                static_cast<unsigned long long>(stats.opsObserved));
  }
  return true;
}

}  // namespace mtt::bench
