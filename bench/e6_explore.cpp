// E6 — Systematic state-space exploration: schedules to first bug for DFS
// with/without preemption bounding vs random sampling, on the real
// instrumented programs; plus the stateful(CMC)-vs-stateless(VeriSoft)
// contrast and the sleep-set ablation on the IR models (Sections 2.1/2.2).
#include <cstdio>

#include "core/table.hpp"
#include "experiments.hpp"
#include "explore/explorer.hpp"
#include "model/checker.hpp"
#include "suite/program.hpp"

namespace mtt::bench {
namespace {

std::string cell(const explore::ExploreResult& r) {
  if (r.bugFound) {
    return "bug @ " + std::to_string(r.firstBugSchedule);
  }
  return (r.exhausted ? "none (exhausted, " : "none (budget, ") +
         std::to_string(r.schedules) + ")";
}

explore::ExploreResult runExplore(suite::Program& p, int bound,
                                  bool randomWalk, std::uint64_t budget) {
  explore::ExploreOptions o;
  o.preemptionBound = bound;
  o.randomWalk = randomWalk;
  o.maxSchedules = budget;
  o.seed = 7;
  explore::Explorer ex(o);
  return ex.explore(
      [&](rt::Runtime& rr) { p.body(rr); },
      [&](const rt::RunResult& res) {
        return p.evaluate(res) == suite::Verdict::BugManifested;
      },
      [&] { p.reset(); });
}

}  // namespace

bool runE6() {
  TextTable t("E6 / schedules to first bug (budget 20000)");
  t.header({"program", "dfs pb=0", "dfs pb=1", "dfs pb=2", "dfs unbounded",
            "random walk"});
  for (const auto& name :
       {"account", "check_then_act", "lock_order_inversion",
        "philosophers_deadlock", "order_violation"}) {
    auto p = suite::makeProgram(name);
    std::vector<std::string> row = {name};
    for (int bound : {0, 1, 2, -1}) {
      row.push_back(cell(runExplore(*p, bound, false, 20'000)));
    }
    row.push_back(cell(runExplore(*p, -1, true, 20'000)));
    t.row(std::move(row));
  }
  t.print();

  // The model-checker ablation on IR models.
  std::printf("\n");
  TextTable mc("E6 / model checking the IR models (exhaustive verdicts)");
  mc.header({"model", "mode", "states", "transitions", "schedules",
             "verdict"});
  for (const auto& name :
       {"account", "account_sync", "lock_order_inversion",
        "philosophers_deadlock", "philosophers_ordered"}) {
    auto p = suite::makeProgram(name);
    const model::Program* ir = p->irModel();
    if (ir == nullptr) continue;
    struct ModeSpec {
      const char* label;
      model::SearchMode mode;
      bool sleepSets;
    };
    const ModeSpec modes[] = {
        {"stateful-dfs", model::SearchMode::StatefulDfs, false},
        {"stateless", model::SearchMode::Stateless, false},
        {"stateless+sleep", model::SearchMode::Stateless, true},
    };
    for (const auto& m : modes) {
      model::CheckOptions o;
      o.mode = m.mode;
      o.sleepSets = m.sleepSets;
      o.maxSchedules = 20'000'000;
      model::CheckResult r = model::check(*ir, o);
      mc.row({name, m.label, std::to_string(r.statesVisited),
              std::to_string(r.transitions), std::to_string(r.schedules),
              r.foundBug()
                  ? std::string(
                        r.firstViolation->kind ==
                                model::Violation::Kind::Deadlock
                            ? "deadlock"
                            : "assertion")
                  : std::string(r.exhausted ? "verified" : "budget")});
    }
  }
  mc.print();

  std::printf(
      "\nExpected shape: preemption bounding finds the bugs orders of\n"
      "magnitude earlier than unbounded DFS (most concurrency bugs need 1-2\n"
      "preemptions); random walk sits in between; on the IR models the\n"
      "stateless search re-executes shared prefixes (transitions >>\n"
      "stateful) and sleep sets prune a large fraction of schedules without\n"
      "changing any verdict.\n");
  return true;
}

}  // namespace mtt::bench
