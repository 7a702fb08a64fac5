// E5 — Concurrency coverage: growth across repeated runs, the effect of
// noise on coverage, static feasibility filtering, and the "how many times
// should each test be executed" estimator (all from Section 2.2).
#include <cstdio>

#include "core/table.hpp"
#include "experiments.hpp"
#include "coverage/coverage.hpp"
#include "model/static.hpp"
#include "noise/noise.hpp"
#include "rt/harness.hpp"
#include "suite/program.hpp"

namespace mtt::bench {
namespace {

/// Runs `program` `runs` times accumulating switch-pair coverage; returns
/// the growth curve and the saturation estimate.
std::pair<std::vector<std::size_t>, std::size_t> coverageCurve(
    const std::string& programName, bool withNoise, std::size_t runs) {
  auto program = suite::makeProgram(programName);
  coverage::CoverageAccumulator acc;
  for (std::uint64_t s = 0; s < runs; ++s) {
    program->reset();
    // Deterministic base scheduler: without noise the same interleaving
    // repeats forever, so cross-run coverage growth is exactly the noise
    // maker's contribution.
    rt::ControlledRuntime rt(std::make_unique<rt::RoundRobinPolicy>());
    coverage::SwitchPairCoverage cov;
    rt.hooks().add(&cov);
    noise::NoiseOptions no;
    no.strength = 0.25;
    noise::MixedNoise nm(rt, no);
    if (withNoise) rt.hooks().add(&nm);
    rt::RunOptions o = program->defaultRunOptions();
    o.seed = s;
    rt.run([&](rt::Runtime& rr) { program->body(rr); }, o);
    acc.addRun(cov);
  }
  return {acc.growthCurve(), acc.saturationRun(5)};
}

}  // namespace

bool runE5() {
  const std::size_t kRuns = 60;
  TextTable growth(
      "E5 / switch-pair coverage growth (deterministic scheduler, 60 runs)");
  growth.header({"program", "noise", "after 1", "after 5", "after 15",
                 "after 30", "after 60", "saturated at run"});
  for (const auto& prog : {"account", "work_queue", "bank_transfer"}) {
    for (bool noise : {false, true}) {
      auto [curve, sat] = coverageCurve(prog, noise, kRuns);
      auto at = [&](std::size_t i) {
        return std::to_string(curve[std::min(i, curve.size()) - 1]);
      };
      growth.row({prog, noise ? "mixed" : "none", at(1), at(5), at(15),
                  at(30), at(60),
                  sat == 0 ? "still growing" : std::to_string(sat)});
    }
  }
  growth.print();

  // Variable-contention coverage with the statically computed feasible-task
  // universe (the paper's fix for "most tasks are not feasible").
  std::printf("\n");
  TextTable feas("E5 / contention coverage with static feasibility filter");
  feas.header({"program", "all vars", "feasible (shared)", "covered",
               "coverage of feasible"});
  for (const auto& prog : {"account", "account_sync", "philosophers_ordered",
                           "lock_order_inversion"}) {
    auto program = suite::makeProgram(prog);
    const model::Program* ir = program->irModel();
    if (ir == nullptr) continue;
    auto universe = model::contentionTaskUniverse(*ir);
    std::set<std::string> everCovered;
    std::size_t totalVars = ir->vars().size();
    for (std::uint64_t s = 0; s < 40; ++s) {
      program->reset();
      rt::ControlledRuntime rt;
      coverage::VarContentionCoverage cov(
          [&rt](ObjectId id) { return rt.objectInfo(id).name; });
      cov.declareTasks(universe);
      noise::NoiseOptions no;
      no.strength = 0.25;
      noise::MixedNoise nm(rt, no);
      rt.hooks().add(&cov);
      rt.hooks().add(&nm);
      rt::RunOptions o = program->defaultRunOptions();
      o.seed = s;
      rt.run([&](rt::Runtime& rr) { program->body(rr); }, o);
      for (const auto& t : cov.snapshot().covered) everCovered.insert(t);
    }
    double ratio = universe.empty()
                       ? 0.0
                       : 100.0 * static_cast<double>(everCovered.size()) /
                             static_cast<double>(universe.size());
    feas.row({prog, std::to_string(totalVars),
              std::to_string(universe.size()),
              std::to_string(everCovered.size()),
              TextTable::num(ratio, 0) + "%"});
  }
  feas.print();

  std::printf(
      "\nExpected shape: coverage grows with diminishing returns; noise\n"
      "shifts the whole curve upward (more distinct interleavings per run);\n"
      "the static filter shrinks the task universe to the shared variables,\n"
      "making the coverage ratio meaningful; the saturation run answers the\n"
      "paper's 'how many times should each test be executed'.\n");
  return true;
}

}  // namespace mtt::bench
