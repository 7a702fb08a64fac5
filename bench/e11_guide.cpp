// E11 — guided vs. fixed campaigns: does coverage/fingerprint feedback
// actually buy anything?
//
// The paper's Section 2.2 closes with "use coverage in order to decide,
// given limited resources, how many times each test should be executed";
// mtt::guide generalizes that to *which configuration* runs next.  This
// bench pits the UCB1-guided campaign against the obvious fixed baseline —
// the same arm set (noise heuristic × strength) cycled uniformly over the
// same seed sequence — and measures how many runs each needs to observe the
// complete failure-fingerprint set that the fixed campaign discovers within
// its whole budget.  Acceptance: guided reaches the fixed-budget bug set in
// <= 60% of the budget on at least three suite programs.
//
// A second table measures the --saturate stopping rule on a closed
// (statically declared) universe: runs spent until saturation vs. the blind
// budget, with the invariant that saturation never fires before the
// universe is fully covered.
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/table.hpp"
#include "experiment/experiment.hpp"
#include "experiments.hpp"
#include "guide/guide.hpp"
#include "suite/program.hpp"

namespace mtt::bench {
namespace {

constexpr std::uint64_t kBudget = 120;
constexpr double kTargetFraction = 0.6;

experiment::RunSpec baseSpec(const std::string& program) {
  experiment::RunSpec base;
  base.programName = program;
  base.tool.policy = "random";
  base.tool.coverage = "switch-pair";
  base.seedBase = 1;
  return base;
}

guide::GuideOptions campaignArms() {
  guide::GuideOptions o;
  o.heuristics = {"yield", "sleep", "mixed"};
  o.strengths = {0.1, 0.25, 0.5};
  o.budget = kBudget;
  o.farm.jobs = 1;
  return o;
}

struct FixedOutcome {
  std::set<std::string> fingerprints;
  std::uint64_t runsToSet = 0;  ///< 1-based run index of the last new fp
};

/// The baseline every farm user runs today: the same arms, cycled
/// uniformly, no feedback.  Same seeds as the guided campaign.
FixedOutcome runFixed(const experiment::RunSpec& base,
                      const std::vector<guide::Arm>& arms) {
  FixedOutcome out;
  // One tool stack per heuristic, as the guided campaign keeps.
  std::map<std::string, experiment::ToolStack> stacks;
  for (std::uint64_t i = 0; i < kBudget; ++i) {
    const guide::Arm& arm = arms[static_cast<std::size_t>(i) % arms.size()];
    experiment::RunSpec spec = guide::armSpec(base, arm);
    spec.seedBase = base.seedBase + i;
    auto it = stacks.find(arm.noise);
    if (it == stacks.end()) {
      it = stacks.emplace(arm.noise, experiment::makeToolStack(spec.tool))
               .first;
    }
    if (it->second.noiseMaker() != nullptr) {
      it->second.noiseMaker()->setOptions(spec.tool.noiseOpts);
    }
    experiment::RunObservation obs =
        experiment::executeRun(spec, 0, it->second);
    std::string fp = guide::observationFingerprint(obs);
    if (!fp.empty() && out.fingerprints.insert(fp).second) {
      out.runsToSet = i + 1;
    }
  }
  return out;
}

}  // namespace

bool runE11() {
  const std::vector<std::string> programs = {
      "account", "check_then_act", "read_modify_write", "work_queue",
      "cache_server"};

  std::printf(
      "Guided (UCB1 over noise-heuristic x strength arms) vs. fixed\n"
      "uniform arm cycling, %llu-run budget each, identical seed sequence.\n"
      "'to set' = runs until every failure fingerprint the fixed campaign\n"
      "finds in its WHOLE budget has been observed.\n\n",
      static_cast<unsigned long long>(kBudget));

  TextTable t("E11 / runs to reach the fixed-budget bug set");
  t.header({"program", "fps", "fixed to set", "guided to set", "fraction",
            "<=60%"});

  std::vector<Json> json;  // one object per program that has a bug set
  std::size_t passes = 0;

  for (const std::string& program : programs) {
    experiment::RunSpec base = baseSpec(program);
    guide::GuideOptions opts = campaignArms();
    std::vector<guide::Arm> arms = guide::buildArms(base, opts);

    FixedOutcome fixed = runFixed(base, arms);
    if (fixed.fingerprints.empty()) {
      std::printf("%s: fixed campaign found no failures in %llu runs; "
                  "skipping\n",
                  program.c_str(),
                  static_cast<unsigned long long>(kBudget));
      continue;
    }

    guide::GuideOptions guided = campaignArms();
    guided.targetFingerprints = fixed.fingerprints;
    guide::GuideResult g = guide::runGuided(base, guided);

    const bool pass = g.targetReached &&
                      static_cast<double>(g.runs()) <=
                          kTargetFraction * static_cast<double>(kBudget);
    if (pass) ++passes;
    t.row({program, std::to_string(fixed.fingerprints.size()),
           std::to_string(fixed.runsToSet),
           g.targetReached ? std::to_string(g.runs()) : "not reached",
           TextTable::frac(g.runs(), static_cast<std::size_t>(kBudget)),
           yesNo(pass)});
    json.push_back(Json::object(
        {{"program", program}, {"fingerprints", fixed.fingerprints.size()},
         {"fixed_runs_to_set", fixed.runsToSet},
         {"guided_runs_to_set", g.runs()},
         {"target_reached", g.targetReached}, {"pass", pass}}));
  }
  t.print();

  // --- saturation overshoot on a closed universe ---------------------------
  experiment::RunSpec closed = baseSpec("account");
  closed.tool.coverage = "var-contention";
  closed.tool.coverageClosedUniverse = true;
  guide::GuideOptions sat = campaignArms();
  sat.saturate = true;
  guide::GuideResult gs = guide::runGuided(closed, sat);
  std::printf(
      "\nsaturation (account, closed var-contention universe): "
      "%zu/%llu runs, complete=%s, saved %lld runs of the blind budget\n",
      gs.runs(), static_cast<unsigned long long>(kBudget),
      gs.coverage.complete() ? "yes" : "no",
      static_cast<long long>(kBudget) - static_cast<long long>(gs.runs()));

  const bool overall = passes >= 3;
  std::printf("\ncriterion: guided reaches the fixed-budget bug set in "
              "<=%.0f%% of the budget on >=3 programs: %zu/%zu -> %s\n",
              kTargetFraction * 100, passes, json.size(),
              overall ? "PASS" : "FAIL");

  const Json saturation =
      Json::object({{"program", "account"}, {"runs", gs.runs()},
                    {"budget", kBudget}, {"complete", gs.coverage.complete()}});
  saveJson("E11", "guide",
           {{"budget", kBudget}, {"target_fraction", kTargetFraction},
            {"programs", Json::array(json)}, {"saturation", saturation},
            {"pass", overall}});
  return overall;
}

}  // namespace mtt::bench
