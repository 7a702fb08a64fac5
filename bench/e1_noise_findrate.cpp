// E1 — Noise makers compared on "likelihood of uncovering bugs"
// (paper Section 2.2 / Section 4: "how frequently they uncover faults").
//
// Setup: each buggy benchmark program runs 100 seeded times under the
// deterministic round-robin scheduler (the paper's "unit testing" scheduler
// that masks everything) with each noise heuristic attached; the oracle
// decides manifestation.  Controls are included to show noise does not
// break correct programs.  A native-mode table repeats the headline
// comparison with real threads and real delays, and a strength sweep
// shows the dose-response curve a tool author tunes against (too little
// noise finds nothing; past the knee, extra noise only costs time).
//
// Campaigns run on the mtt::farm engine with all cores: controlled-mode
// cells are byte-identical to the serial path, and the per-run watchdog
// keeps one pathological native-mode run from wedging the whole table.
#include <cstdio>

#include "core/table.hpp"
#include "experiment/experiment.hpp"
#include "experiments.hpp"
#include "farm/farm.hpp"
#include "model/static.hpp"
#include "suite/program.hpp"

namespace mtt::bench {
namespace {

experiment::ExperimentResult runRow(const std::string& program,
                                    const std::string& noiseName,
                                    RuntimeMode mode, std::size_t runs,
                                    double strength = 0.25) {
  experiment::ExperimentSpec spec;
  spec.programName = program;
  spec.runs = runs;
  spec.tool.mode = mode;
  spec.tool.policy = "rr";
  spec.tool.noiseName = noiseName;
  spec.tool.noiseOpts.strength = strength;
  spec.tool.noiseOpts.maxSleepNative = 3000;
  if (noiseName == "targeted") {
    auto p = suite::makeProgram(program);
    const model::Program* ir = p->irModel();
    if (ir == nullptr) return {};  // targeted needs the static model
    spec.tool.noiseTargets = model::escapeAnalysis(*ir).sharedVarNames;
  }
  if (mode == RuntimeMode::Native) {
    rt::RunOptions o = suite::makeProgram(program)->defaultRunOptions();
    o.blockTimeout = std::chrono::milliseconds(120);
    spec.runOptions = o;
  }
  farm::FarmOptions fo;
  fo.runTimeout = std::chrono::seconds(30);
  return farm::runExperimentFarm(spec, fo).result;
}

/// Mixed noise swept from 0.05 to 0.8 under round-robin, 80 runs a cell.
void strengthSweep() {
  TextTable sweep(
      "E1 / mixed-noise strength sweep under round-robin (80 runs)");
  sweep.header({"program", "0.05", "0.1", "0.2", "0.4", "0.8",
                "injections@0.8"});
  for (const auto& prog : {"account", "work_queue", "cache_server"}) {
    std::vector<std::string> row = {prog};
    std::uint64_t inj = 0;
    for (double strength : {0.05, 0.1, 0.2, 0.4, 0.8}) {
      auto r = runRow(prog, "mixed", RuntimeMode::Controlled, 80, strength);
      row.push_back(
          TextTable::frac(r.manifested.successes, r.manifested.trials));
      inj = r.noiseInjections;
    }
    row.push_back(std::to_string(inj));
    sweep.row(std::move(row));
  }
  sweep.print();
  std::printf(
      "\nExpected shape: the find rate rises steeply with strength, then\n"
      "flattens at the knee; past it, extra noise only costs time.\n");
}

}  // namespace

bool runE1() {
  std::printf(
      "Bug-finding probability per noise heuristic (controlled mode,\n"
      "deterministic base scheduler, 100 seeded runs per cell).\n\n");

  const std::vector<std::string> buggy = {
      "account",         "read_modify_write", "check_then_act",
      "double_checked_lock", "bank_transfer", "bounded_buffer_bug",
      "notify_lost",     "order_violation",   "sleep_sync",
      "work_queue",      "lock_order_inversion"};
  const std::vector<std::string> heuristics = {"none", "yield", "sleep",
                                               "mixed", "coverage-directed",
                                               "targeted"};

  for (const auto& prog : buggy) {
    std::vector<experiment::ExperimentResult> rows;
    for (const auto& h : heuristics) {
      auto r = runRow(prog, h, RuntimeMode::Controlled, 100);
      if (r.runs > 0) rows.push_back(std::move(r));
    }
    std::fputs(
        experiment::findRateReport("E1 / " + prog, rows).c_str(), stdout);
    std::fputs("\n", stdout);
  }

  std::printf("Controls (noise must not make correct programs fail):\n\n");
  {
    std::vector<experiment::ExperimentResult> rows;
    for (const auto& prog :
         {"account_sync", "producer_consumer_sem", "philosophers_ordered"}) {
      rows.push_back(runRow(prog, "mixed", RuntimeMode::Controlled, 60));
    }
    std::fputs(
        experiment::findRateReport("E1 / controls with mixed noise", rows)
            .c_str(),
        stdout);
    std::fputs("\n", stdout);
  }

  strengthSweep();
  std::printf("\n");

  std::printf("Native mode (real threads, real sleeps; 30 runs per cell):\n\n");
  for (const auto& prog : {"account", "check_then_act", "work_queue"}) {
    std::vector<experiment::ExperimentResult> rows;
    for (const auto& h : {"none", "sleep", "mixed"}) {
      rows.push_back(runRow(prog, h, RuntimeMode::Native, 30));
    }
    std::fputs(
        experiment::findRateReport(std::string("E1-native / ") + prog, rows)
            .c_str(),
        stdout);
    std::fputs("\n", stdout);
  }
  return true;
}

}  // namespace mtt::bench
