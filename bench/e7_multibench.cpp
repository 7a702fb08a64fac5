// E7 — The "specially prepared benchmark program" (Section 4, component 4):
// the MultiBenchmark has no inputs and many legal results; noise makers are
// compared "as to the distribution of their results".
#include <cstdio>

#include "core/stats.hpp"
#include "core/table.hpp"
#include "experiments.hpp"
#include "experiment/experiment.hpp"
#include "farm/farm.hpp"
#include "noise/noise.hpp"
#include "rt/harness.hpp"
#include "suite/multi_benchmark.hpp"

namespace mtt::bench {
namespace {

// Each seed is an independent farm job (fresh benchmark + runtime + noise
// per run); the outcome strings come back as records and fold in seed
// order, so the distribution matches the old serial loop exactly.
OutcomeDistribution distributionFor(const std::string& noiseName,
                                    const std::string& policy,
                                    std::size_t runs) {
  farm::FarmOptions fo;
  farm::CampaignResult cr = farm::runJobs(
      runs,
      [&](std::uint64_t s) {
        suite::MultiBenchmark mb;
        mb.reset();
        rt::ControlledRuntime rt(experiment::makePolicy(policy));
        noise::NoiseOptions no;
        no.strength = 0.25;
        auto nm = noise::makeNoise(noiseName, rt, no);
        rt.hooks().add(nm.get());
        rt::RunOptions o;
        o.seed = s;
        rt::RunResult r = rt.run([&](rt::Runtime& rr) { mb.body(rr); }, o);
        experiment::RunObservation obs;
        obs.runIndex = s;
        obs.seed = s;
        obs.status = std::string(to_string(r.status));
        obs.events = r.events;
        obs.noiseInjections = nm->injections();
        obs.outcome = r.ok() ? mb.outcome()
                             : "aborted:" + std::string(to_string(r.status));
        return obs;
      },
      fo);
  OutcomeDistribution dist;
  for (const auto& rec : cr.records) dist.add(rec.outcome);
  return dist;
}

}  // namespace

bool runE7() {
  const std::size_t kRuns = 200;
  std::printf(
      "Outcome distribution of the no-input MultiBenchmark\n"
      "(components: ticket_lottery, account, check_then_act,\n"
      "order_violation; %zu runs per configuration)\n\n",
      kRuns);

  TextTable t("E7 / result-distribution comparison");
  t.header({"scheduler", "noise", "distinct outcomes", "entropy (bits)",
            "mode outcome freq"});
  struct Config {
    const char* policy;
    const char* noise;
  };
  const Config configs[] = {
      {"rr", "none"},   {"rr", "yield"},        {"rr", "sleep"},
      {"rr", "mixed"},  {"rr", "coverage-directed"},
      {"random", "none"}, {"random", "mixed"},
  };
  for (const auto& c : configs) {
    OutcomeDistribution d = distributionFor(c.noise, c.policy, kRuns);
    t.row({c.policy, c.noise, std::to_string(d.distinct()),
           TextTable::num(d.entropyBits(), 2),
           TextTable::num(d.modeFraction() * 100, 1) + "%"});
  }
  t.print();

  // Show a few concrete outcomes from the most diverse configuration.
  std::printf("\nSample outcomes under random + mixed:\n");
  OutcomeDistribution d = distributionFor("mixed", "random", 50);
  int shown = 0;
  for (const auto& [outcome, count] : d.counts()) {
    std::printf("  %2zux  %s\n", count, outcome.c_str());
    if (++shown >= 8) break;
  }

  std::printf(
      "\nExpected shape: the deterministic scheduler without noise yields\n"
      "exactly one outcome (zero entropy); every noise heuristic raises the\n"
      "distinct-outcome count and entropy; the random scheduler is the\n"
      "upper reference.  This is the push-button tool comparison the paper\n"
      "proposes for component 4.\n");
  return true;
}

}  // namespace mtt::bench
