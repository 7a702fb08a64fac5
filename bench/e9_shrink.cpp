// E9 — schedule minimization: how small a witness the triage shrinker
// produces, and what it costs.
//
// For each benchmark program, hunt a failing seed under full-strength mixed
// noise (the configuration that produces the most bloated counterexamples),
// then ddmin + preemption-lower the recorded schedule.  Reported per
// program: original vs. minimized decision count, removed fraction,
// preemption counts, replay validations spent, whether the noise maker was
// stripped from the tool stack, and whether the minimized witness replays
// exactly with the original failure signature.  Expected shape: >=50%
// of decisions removed on the classic two-thread races and deadlocks, the
// preemption count dropping to the bug's intrinsic minimum, and every
// witness replay-verified.  A second table shows that farm-parallel
// candidate scanning changes wall time, not the result.
#include <cstdio>
#include <string>
#include <vector>

#include "core/table.hpp"
#include "experiments.hpp"
#include "suite/program.hpp"
#include "triage/probe.hpp"
#include "triage/shrink.hpp"

namespace mtt::bench {
namespace {

struct Hunted {
  replay::Scenario scenario;
  bool found = false;
};

Hunted hunt(const std::string& program) {
  Hunted h;
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    triage::ReplayToolConfig cfg;
    cfg.noiseName = "mixed";
    cfg.strength = 1.0;
    cfg.seed = seed;
    triage::ProbeResult r = triage::recordRun(program, "random", cfg);
    if (!r.signature.failure()) continue;
    h.scenario.program = program;
    h.scenario.seed = seed;
    h.scenario.policy = "random";
    h.scenario.noise = cfg.noiseName;
    h.scenario.strength = cfg.strength;
    h.scenario.schedule = r.recorded;
    h.found = true;
    return h;
  }
  return h;
}

std::string pct(double x) { return TextTable::num(x * 100.0, 0) + "%"; }

}  // namespace

bool runE9() {
  std::printf(
      "Witnesses hunted with mixed noise at strength 1.0 (maximally\n"
      "bloated schedules), then shrunk with the signature-preserving\n"
      "ddmin + preemption-lowering passes.\n\n");

  const std::vector<std::string> programs = {
      "account", "philosophers_deadlock", "lock_order_inversion",
      "bounded_buffer_bug"};

  TextTable t("E9 / witness minimization");
  t.header({"program", "kind", "decisions", "removed", "preempt", "valid",
            "noise", "replay", "wall ms"});
  std::vector<Hunted> hunted;
  for (const std::string& p : programs) {
    Hunted h = hunt(p);
    hunted.push_back(h);
    if (!h.found) {
      t.row({p, "-", "no failure in 500 seeds", "-", "-", "-", "-", "-",
             "-"});
      continue;
    }
    triage::ShrinkResult r;
    const double sec =
        bestWall(1, [&] { r = triage::shrinkScenario(h.scenario, {}); });
    t.row({p, std::string(to_string(r.signature.kind)),
           std::to_string(r.original.size()) + " -> " +
               std::to_string(r.minimized.schedule.size()),
           pct(r.removedRatio()),
           std::to_string(r.originalPreemptions) + " -> " +
               std::to_string(r.minimizedPreemptions),
           std::to_string(r.validations),
           r.noiseStripped ? "stripped" : "kept",
           r.verifiedExact ? "exact" : "NOT exact", TextTable::num(sec * 1e3, 1)});
  }
  t.print();

  std::printf(
      "\nFarm-parallel candidate scanning (same minimized witness for every\n"
      "worker count, by construction — only wall time may move):\n\n");
  TextTable p("E9 / shrink determinism vs. jobs");
  p.header({"program", "jobs", "decisions", "identical", "wall ms"});
  for (std::size_t i = 0; i < programs.size(); ++i) {
    if (!hunted[i].found) continue;
    std::vector<rt::Decision> serialWitness;
    for (std::size_t jobs : {1u, 2u, 4u}) {
      triage::ShrinkOptions so;
      so.jobs = jobs;
      triage::ShrinkResult r;
      const double sec = bestWall(
          1, [&] { r = triage::shrinkScenario(hunted[i].scenario, so); });
      if (jobs == 1) serialWitness = r.minimized.schedule.decisions;
      p.row({programs[i], std::to_string(jobs),
             std::to_string(r.minimized.schedule.size()),
             jobs == 1 ? "baseline"
                       : (r.minimized.schedule.decisions == serialWitness
                              ? "yes"
                              : "NO"),
             TextTable::num(sec * 1e3, 1)});
    }
  }
  p.print();
  return true;
}

}  // namespace mtt::bench
