// E14 — the policy arsenal: operation-aware schedule policies compared as
// bug finders, plus the sleep-set pruning win on exhaustive exploration.
//
//   (a) find rates of rr / random / pct (true PCT, adaptive run length) /
//       pos (Partial Order Sampling) across thread-shaped AND event-loop
//       suite programs, no noise — pure scheduler-vs-scheduler: when you
//       own the scheduler, adversarial scheduling subsumes noise, while
//       noise is the only lever when you don't;
//   (b) exhaustive exploration with and without sleep-set pruning on the
//       programs small enough to exhaust: executed schedules, pruned runs,
//       and the invariant that the verdict is identical.
//
// Results go to stdout and BENCH_policies.json.  Criterion: on every
// explored program sleep sets prune something, execute strictly fewer
// schedules, and reach the same verdict.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/table.hpp"
#include "experiment/experiment.hpp"
#include "experiments.hpp"
#include "explore/explorer.hpp"

namespace mtt::bench {
namespace {

struct ExploreRow {
  std::string program;
  std::uint64_t naive = 0;        // executed schedules, naive DFS
  std::uint64_t slept = 0;        // executed schedules, sleep sets
  std::uint64_t pruned = 0;       // runs discarded by sleep sets
  bool sameVerdict = false;
  double savings() const {
    return naive == 0 ? 0.0
                      : 100.0 * (1.0 - static_cast<double>(slept) /
                                           static_cast<double>(naive));
  }
};

ExploreRow exploreBoth(const std::string& program) {
  ExploreRow row;
  row.program = program;
  bool naiveBug = false, sleptBug = false;
  for (bool sleepSets : {false, true}) {
    experiment::RunSpec spec;
    spec.programName = program;
    explore::ExploreOptions o;
    o.stopAtFirstBug = false;
    o.maxSchedules = 5'000'000;
    o.sleepSets = sleepSets;
    explore::ExploreResult r = explore::exploreSpec(spec, o);
    if (!r.exhausted) {
      throw std::runtime_error(program + " did not exhaust within budget");
    }
    if (sleepSets) {
      row.slept = r.schedules;
      row.pruned = r.prunedRuns;
      sleptBug = r.bugFound;
    } else {
      row.naive = r.schedules;
      naiveBug = r.bugFound;
    }
  }
  row.sameVerdict = naiveBug == sleptBug;
  return row;
}

}  // namespace

bool runE14() {
  // --- (a) policy find rates, no noise -------------------------------------
  const std::vector<std::string> policies = {"rr", "random", "pct:d=3",
                                             "pos"};
  const std::vector<std::string> programs = {
      "account",          "check_then_act",
      "work_queue",       "philosophers_deadlock",
      "cache_server",     "notify_lost",
      "evloop_conn_pool", "evloop_lru_cache",
      "evloop_quota_sessions"};
  constexpr std::size_t kRuns = 100;

  std::vector<Json> json;  // find rates, then sleep-set rows
  TextTable rates("E14 / policy find rates without noise (100 runs per cell)");
  rates.header({"program", "rr", "random", "pct:d=3", "pos"});
  for (const std::string& prog : programs) {
    std::vector<std::string> row = {prog};
    for (const std::string& policy : policies) {
      experiment::ExperimentSpec spec;
      spec.programName = prog;
      spec.runs = kRuns;
      spec.tool.policy = policy;
      spec.tool.noiseName = "none";
      auto r = experiment::runExperiment(spec);
      row.push_back(
          TextTable::frac(r.manifested.successes, r.manifested.trials));
      json.push_back(Json::object({{"kind", "find_rate"},
                                   {"program", prog}, {"policy", policy},
                                   {"found", r.manifested.successes},
                                   {"runs", kRuns}}));
    }
    rates.row(std::move(row));
  }
  rates.print();

  // --- (b) sleep-set pruning on exhaustive exploration ---------------------
  std::printf("\n");
  // Acceptance: sleep sets pruned something everywhere, verdicts identical,
  // and the executed-schedule count strictly dropped.
  bool pass = true;
  TextTable prune("E14 / sleep-set pruning (exhaustive DFS, same verdict)");
  prune.header({"program", "naive schedules", "sleep-set schedules", "pruned",
                "saved", "verdict"});
  for (const char* prog : {"account_sync", "check_then_act", "account"}) {
    ExploreRow row = exploreBoth(prog);
    prune.row({row.program, std::to_string(row.naive),
               std::to_string(row.slept), std::to_string(row.pruned),
               TextTable::num(row.savings(), 1) + "%",
               row.sameVerdict ? "identical" : "DIFFERS"});
    json.push_back(Json::object(
        {{"kind", "sleep_sets"}, {"program", row.program},
         {"naive_schedules", row.naive}, {"sleepset_schedules", row.slept},
         {"pruned_runs", row.pruned}, {"same_verdict", row.sameVerdict}}));
    pass = pass && row.sameVerdict && row.slept < row.naive && row.pruned > 0;
  }
  prune.print();

  std::printf(
      "\nExpected shape: rr masks everything; random is the strong baseline\n"
      "on these short programs; pct trades uniform coverage for its\n"
      "depth-targeted guarantee (with d change points its hit rate on a\n"
      "w-step race window of a k-step run is ~d*w/k, so it wins only on long\n"
      "runs); pos matches or beats random where the racing operations are\n"
      "object-sparse, because priorities are reassigned exactly at dependent\n"
      "operations.  Sleep-set pruning explores strictly fewer schedules with\n"
      "identical verdicts — the classic partial-order-reduction win, now\n"
      "available to any operation-aware policy through the v2 choice-point\n"
      "API.\n");

  std::printf("\ncriterion: same verdict, fewer schedules, pruned > 0 on "
              "every program -> %s\n",
              pass ? "PASS" : "FAIL");

  saveJson("E14", "policies", {{"rows", Json::array(json)}});
  return pass;
}

}  // namespace mtt::bench
