// E14 — the policy arsenal: operation-aware schedule policies compared as
// bug finders, plus the DPOR win on exhaustive exploration.
//
//   (a) find rates of rr / random / pct (true PCT, adaptive run length) /
//       pos (Partial Order Sampling) across thread-shaped AND event-loop
//       suite programs, no noise — pure scheduler-vs-scheduler: when you
//       own the scheduler, adversarial scheduling subsumes noise, while
//       noise is the only lever when you don't;
//   (b) exhaustive exploration with naive DFS and with Optimal DPOR
//       (--sleep-sets) on the programs small enough to exhaust: executed
//       schedules, sleep-blocked runs, and the invariant that verdict and
//       run-fingerprint set are identical.
//
// Results go to stdout and BENCH_policies.json.  Criterion: on every
// explored program DPOR reaches the same verdict and fingerprint set as
// naive DFS, executes strictly fewer schedules, and runs no sleep-blocked
// execution (pruned == 0).
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/table.hpp"
#include "experiment/experiment.hpp"
#include "experiments.hpp"
#include "explore/explorer.hpp"
#include "suite/program.hpp"

namespace mtt::bench {
namespace {

struct ExploreRow {
  std::string program;
  std::uint64_t naive = 0;   // executed schedules, naive DFS
  std::uint64_t dpor = 0;    // executed schedules, DPOR
  std::uint64_t pruned = 0;  // sleep-blocked runs under DPOR
  bool sameVerdict = false;
  bool sameFingerprints = false;
  double savings() const {
    return naive == 0 ? 0.0
                      : 100.0 * (1.0 - static_cast<double>(dpor) /
                                           static_cast<double>(naive));
  }
};

ExploreRow exploreBoth(const std::string& program) {
  ExploreRow row;
  row.program = program;
  bool bug[2] = {false, false};
  std::set<std::string> fingerprints[2];
  for (bool dpor : {false, true}) {
    auto p = suite::makeProgram(program);
    explore::ExploreOptions o;
    o.stopAtFirstBug = false;
    o.maxSchedules = 5'000'000;
    o.sleepSets = dpor;
    std::set<std::string>& fps = fingerprints[dpor];
    explore::ExploreResult r = explore::Explorer(o).explore(
        [&](rt::Runtime& rr) { p->body(rr); },
        [&](const rt::RunResult& res) {
          const bool b = p->evaluate(res) == suite::Verdict::BugManifested;
          fps.insert(std::string(rt::to_string(res.status)) + "|" +
                     (b ? "bug" : "ok") + "|" + p->outcome());
          return b;
        },
        [&] { p->reset(); });
    if (!r.exhausted) {
      throw std::runtime_error(program + " did not exhaust within budget");
    }
    bug[dpor] = r.bugFound;
    if (dpor) {
      row.dpor = r.schedules;
      row.pruned = r.prunedRuns;
    } else {
      row.naive = r.schedules;
    }
  }
  row.sameVerdict = bug[0] == bug[1];
  row.sameFingerprints = fingerprints[0] == fingerprints[1];
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

  std::vector<Json> json;  // find rates, then DPOR rows
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

  // --- (b) DPOR on exhaustive exploration --------------------------------
  std::printf("\n");
  // Acceptance: verdicts and fingerprint sets identical, the executed-
  // schedule count strictly dropped, and no sleep-blocked run anywhere.
  bool pass = true;
  TextTable dporTable(
      "E14 / Optimal DPOR vs naive DFS (exhaustive, same verdict and "
      "fingerprints)");
  dporTable.header({"program", "naive schedules", "DPOR schedules", "pruned",
                    "saved", "verdict", "fingerprints"});
  for (const char* prog : {"account_sync", "check_then_act", "account"}) {
    ExploreRow row = exploreBoth(prog);
    dporTable.row({row.program, std::to_string(row.naive),
                   std::to_string(row.dpor), std::to_string(row.pruned),
                   TextTable::num(row.savings(), 1) + "%",
                   row.sameVerdict ? "identical" : "DIFFERS",
                   row.sameFingerprints ? "identical" : "DIFFER"});
    json.push_back(Json::object(
        {{"kind", "dpor"}, {"program", row.program},
         {"naive_schedules", row.naive}, {"dpor_schedules", row.dpor},
         {"pruned_runs", row.pruned}, {"same_verdict", row.sameVerdict},
         {"same_fingerprints", row.sameFingerprints}}));
    pass = pass && row.sameVerdict && row.sameFingerprints &&
           row.dpor < row.naive && row.pruned == 0;
  }
  dporTable.print();

  std::printf(
      "\nExpected shape: rr masks everything; random is the strong baseline\n"
      "on these short programs; pct trades uniform coverage for its\n"
      "depth-targeted guarantee (with d change points its hit rate on a\n"
      "w-step race window of a k-step run is ~d*w/k, so it wins only on long\n"
      "runs); pos matches or beats random where the racing operations are\n"
      "object-sparse, because priorities are reassigned exactly at dependent\n"
      "operations.  Optimal DPOR runs one schedule per Mazurkiewicz trace,\n"
      "with identical verdicts and fingerprints and no sleep-blocked run —\n"
      "the partial-order-reduction win, built on the v2 choice-point API's\n"
      "operation descriptors.\n");

  std::printf("\ncriterion: same verdict and fingerprint set, fewer "
              "schedules than naive, pruned == 0 on every program -> %s\n",
              pass ? "PASS" : "FAIL");

  saveJson("E14", "policies", {{"rows", Json::array(json)}});
  return pass;
}

}  // namespace mtt::bench
