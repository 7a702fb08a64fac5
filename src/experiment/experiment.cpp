#include "experiment/experiment.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/table.hpp"
#include "core/wire.hpp"
#include "deadlock/lockgraph.hpp"
#include "model/static.hpp"
#include "race/detectors.hpp"

namespace mtt::experiment {

std::string ToolConfig::label() const {
  std::string l = noiseName;
  if (noiseName == "targeted" && !noiseTargets.empty()) {
    l += "(" + std::to_string(noiseTargets.size()) + " vars)";
  }
  for (const auto& d : detectors) l += "+" + d;
  if (lockGraph) l += "+lockgraph";
  if (!coverage.empty()) {
    l += "+cov:" + coverage;
    if (coverageClosedUniverse) l += "(closed)";
  }
  l += mode == RuntimeMode::Controlled ? "/ctl-" + policy : "/native";
  return l;
}

namespace {

std::string joinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

constexpr const char* kPolicyGrammar =
    "rr | random[:switch=P] | pct[:d=D,k=K] | pos | priority[:d=D,k=K]";

[[noreturn]] void badPolicy(const std::string& name, const std::string& why) {
  throw std::runtime_error("malformed schedule policy '" + name + "': " +
                           why + " (grammar: " + kPolicyGrammar + ")");
}

/// Parses the `key=value[,key=value...]` parameter list of a policy spec.
std::vector<std::pair<std::string, std::string>> parsePolicyParams(
    const std::string& name, std::string_view params) {
  std::vector<std::pair<std::string, std::string>> out;
  for (std::string_view item : wire::splitFields(params, ',')) {
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 == item.size()) {
      badPolicy(name, "expected key=value, got '" + std::string(item) + "'");
    }
    out.emplace_back(item.substr(0, eq), item.substr(eq + 1));
  }
  return out;
}

std::uint64_t policyUint(const std::string& name, const std::string& key,
                         const std::string& value) {
  std::uint64_t v = 0;
  if (!wire::parseU64(value, v)) {
    badPolicy(name, key + " must be a non-negative integer, got '" + value +
                        "'");
  }
  return v;
}

double policyProb(const std::string& name, const std::string& key,
                  const std::string& value) {
  double v = 0;
  if (!wire::parseDouble(value, v) || !(v >= 0.0 && v <= 1.0)) {
    badPolicy(name, key + " must be a probability in [0,1], got '" + value +
                        "'");
  }
  return v;
}

}  // namespace

std::unique_ptr<rt::SchedulePolicy> makePolicy(const std::string& name) {
  const std::size_t colon = name.find(':');
  const std::string base = name.substr(0, colon);
  std::vector<std::pair<std::string, std::string>> params;
  if (colon != std::string::npos) {
    params = parsePolicyParams(name,
                               std::string_view(name).substr(colon + 1));
  }
  auto rejectParams = [&] {
    if (!params.empty()) {
      badPolicy(name, "'" + base + "' takes no parameters");
    }
  };
  if (base == "rr") {
    rejectParams();
    return std::make_unique<rt::RoundRobinPolicy>();
  }
  if (base == "random") {
    double switchProb = 1.0;
    for (const auto& [k, v] : params) {
      if (k == "switch") {
        switchProb = policyProb(name, k, v);
      } else {
        badPolicy(name, "unknown parameter '" + k + "'");
      }
    }
    return std::make_unique<rt::RandomPolicy>(switchProb);
  }
  if (base == "pct" || base == "priority") {
    // `priority` is the historical name of the PCT scheduler; both spell
    // the same policy.  d = priority-change points (bug depth to target),
    // k = run-length window (0/absent = adaptive estimate).
    std::uint64_t d = 3;
    std::uint64_t k = 0;
    for (const auto& [key, v] : params) {
      if (key == "d") {
        d = policyUint(name, key, v);
        if (d == 0) badPolicy(name, "d must be >= 1");
      } else if (key == "k") {
        k = policyUint(name, key, v);
      } else {
        badPolicy(name, "unknown parameter '" + key + "'");
      }
    }
    return std::make_unique<rt::PriorityPolicy>(static_cast<int>(d), k);
  }
  if (base == "pos") {
    rejectParams();
    return std::make_unique<rt::POSPolicy>();
  }
  throw std::runtime_error("unknown schedule policy '" + name +
                           "' (valid: " + joinNames(policyNames()) +
                           "; grammar: " + kPolicyGrammar + ")");
}

std::vector<std::string> policyNames() {
  return {"random", "rr", "pct", "pos", "priority"};
}

void validateToolConfig(const ToolConfig& tool) {
  if (tool.mode == RuntimeMode::Controlled) {
    makePolicy(tool.policy);  // throws with the valid list on unknown names
  }
  if (tool.noiseName != "targeted") {
    // Probe the factory without a runtime: the name list is authoritative.
    const auto names = noise::noiseNames();
    if (std::find(names.begin(), names.end(), tool.noiseName) ==
        names.end()) {
      throw std::runtime_error("unknown noise heuristic '" +
                               tool.noiseName +
                               "' (valid: " + joinNames(names) +
                               ", targeted)");
    }
  }
  for (const auto& d : tool.detectors) {
    // "mmrace" is resolved by ToolStackBuilder::detector (it lives in
    // mtt::mem, outside race::detectorNames()).
    if (d != "mmrace" && !race::makeDetector(d)) {
      throw std::runtime_error("unknown detector '" + d + "' (valid: " +
                               joinNames(race::detectorNames()) +
                               ", mmrace)");
    }
  }
  if (!tool.coverage.empty()) {
    const auto names = coverage::coverageNames();
    if (std::find(names.begin(), names.end(), tool.coverage) == names.end()) {
      throw std::runtime_error("unknown coverage model '" + tool.coverage +
                               "' (valid: " + joinNames(names) + ")");
    }
  }
}

ToolStack makeToolStack(const ToolConfig& tool) {
  // Canonical assembly order: detectors observe first, noise perturbs last.
  ToolStackBuilder b;
  for (const auto& d : tool.detectors) b.detector(d);
  if (tool.lockGraph) b.lockGraph();
  if (!tool.coverage.empty()) b.coverage(tool.coverage);
  if (tool.noiseName == "targeted") {
    b.targetedNoise(tool.noiseTargets, tool.noiseOpts);
  } else {
    b.noise(tool.noiseName, tool.noiseOpts);
  }
  return b.build();
}

RunObservation executeRun(const RunSpec& spec, std::size_t i,
                          ToolStack& tools) {
  auto program = suite::makeProgram(spec.programName);
  program->reset();

  std::unique_ptr<rt::SchedulePolicy> policy;
  if (spec.tool.mode == RuntimeMode::Controlled) {
    policy = spec.policyFactory ? spec.policyFactory()
                                : makePolicy(spec.tool.policy);
  }
  // reset() first: a reused stack must start every run in the same state a
  // freshly-built stack would, or reports stop being seed-deterministic.
  tools.reset();
  rt::Runtime& rt = tools.runtime(spec.tool.mode, std::move(policy));
  if (tools.coverageModel() != nullptr && spec.tool.coverageClosedUniverse) {
    if (const model::Program* ir = program->irModel()) {
      tools.coverageModel()->declareTasks(model::contentionTaskUniverse(*ir));
    }
  }

  rt::RunOptions opts =
      spec.runOptions ? *spec.runOptions : program->defaultRunOptions();
  opts.seed = spec.seedBase + i;
  opts.programName = spec.programName;
  if (spec.forceSeqCst) opts.forceSeqCst = true;

  // When the worker process has the flight recorder armed (farm Process
  // model with a postmortem dir), describe the run so a crash mid-run
  // dumps a replayable scenario.
  if (rt::fr::armed()) {
    rt::fr::RunMeta meta;
    meta.program = spec.programName.c_str();
    meta.seed = opts.seed;
    meta.policy = spec.tool.policy.c_str();
    meta.noise = spec.tool.noiseName.empty() ? "none"
                                             : spec.tool.noiseName.c_str();
    meta.strength = spec.tool.noiseOpts.strength;
    rt::fr::beginRun(meta);
  }

  rt::RunResult r =
      rt.run([&](rt::Runtime& rr) { program->body(rr); }, opts);
  rt::fr::endRun();

  RunObservation obs;
  obs.runIndex = i;
  obs.seed = opts.seed;
  obs.status = std::string(to_string(r.status));
  obs.manifested = program->evaluate(r) == suite::Verdict::BugManifested;
  obs.hasDetectors = !tools.detectors().empty();
  for (race::RaceDetector* det : tools.detectors()) {
    obs.warnings += det->warningCount();
    obs.trueWarnings += det->trueAlarms();
    obs.falseWarnings += det->falseAlarms();
    obs.detectorHit = obs.detectorHit || det->foundAnnotatedBug();
  }
  if (tools.lockGraph() != nullptr) {
    obs.deadlockPotentials = tools.lockGraph()->warnings().size();
  }
  obs.wallSeconds = r.wallSeconds;
  obs.events = r.events;
  if (tools.noiseMaker() != nullptr) {
    obs.noiseInjections = tools.noiseMaker()->injections();
  }
  obs.outcome = program->outcome();
  obs.failureMessage = r.failureMessage;
  obs.dispatchDeliveries = r.dispatch.deliveries;
  obs.dispatchNsPerEvent = r.dispatch.nsPerEvent();
  if (tools.coverageModel() != nullptr) {
    // runSnapshot, not snapshot: the record must be a pure function of the
    // run (a reused stack's accumulated universe would otherwise leak into
    // it and break the farm's byte-determinism across worker counts).
    obs.coverage = tools.coverageModel()->runSnapshot().encode();
  }
  return obs;
}

void accumulate(ExperimentResult& result, const RunObservation& obs) {
  if (obs.supervised()) {
    // A timed-out / crashed / irrecoverable run yields no measurements;
    // it counts as a non-manifestation and is visible in statusCounts
    // and in the outcome distribution.
    result.manifested.add(false);
    if (obs.hasDetectors) result.detectorHit.add(false);
    result.outcomes.add("farm:" + obs.status);
    result.statusCounts[obs.status]++;
    return;
  }
  result.manifested.add(obs.manifested);
  result.warnings += obs.warnings;
  result.trueWarnings += obs.trueWarnings;
  result.falseWarnings += obs.falseWarnings;
  if (obs.hasDetectors) result.detectorHit.add(obs.detectorHit);
  result.deadlockPotentials += obs.deadlockPotentials;
  result.wallSeconds.add(obs.wallSeconds);
  result.events.add(static_cast<double>(obs.events));
  result.noiseInjections += obs.noiseInjections;
  result.outcomes.add(obs.outcome);
  result.statusCounts[obs.status]++;
}

void mergeInto(ExperimentResult& into, const ExperimentResult& part) {
  if (into.runs == 0) {
    into.programName = part.programName;
    into.toolLabel = part.toolLabel;
  }
  into.runs += part.runs;
  into.manifested.merge(part.manifested);
  into.detectorHit.merge(part.detectorHit);
  into.warnings += part.warnings;
  into.trueWarnings += part.trueWarnings;
  into.falseWarnings += part.falseWarnings;
  into.deadlockPotentials += part.deadlockPotentials;
  into.wallSeconds.merge(part.wallSeconds);
  into.events.merge(part.events);
  into.noiseInjections += part.noiseInjections;
  into.outcomes.merge(part.outcomes);
  for (const auto& [status, n] : part.statusCounts) {
    into.statusCounts[status] += n;
  }
}

ExperimentResult runExperiment(const ExperimentSpec& spec) {
  validateToolConfig(spec.tool);
  ExperimentResult result;
  result.programName = spec.programName;
  result.toolLabel = spec.tool.label();
  result.runs = spec.runs;
  // One stack for the whole campaign: executeRun resets it per run.
  ToolStack tools = makeToolStack(spec.tool);
  for (std::size_t i = 0; i < spec.runs; ++i) {
    accumulate(result, executeRun(spec, i, tools));
  }
  return result;
}

std::string findRateReport(const std::string& title,
                           const std::vector<ExperimentResult>& results,
                           const ReportOptions& opts) {
  TextTable t(title);
  std::vector<std::string> head = {"program", "tool", "manifested",
                                   "95% CI", "avg events"};
  if (opts.timing) head.push_back("avg ms");
  head.push_back("injections");
  t.header(head);
  for (const auto& r : results) {
    std::vector<std::string> row = {
        r.programName, r.toolLabel,
        TextTable::frac(r.manifested.successes, r.manifested.trials),
        "[" + TextTable::num(r.manifested.wilsonLow(), 2) + ", " +
            TextTable::num(r.manifested.wilsonHigh(), 2) + "]",
        TextTable::num(r.events.mean(), 0)};
    if (opts.timing) row.push_back(TextTable::num(r.wallSeconds.mean() * 1e3, 2));
    row.push_back(std::to_string(r.noiseInjections));
    t.row(std::move(row));
  }
  return t.render();
}

std::string detectorReport(const std::string& title,
                           const std::vector<ExperimentResult>& results) {
  TextTable t(title);
  t.header({"program", "tool", "runs-with-hit", "warnings", "true", "false",
            "false-rate"});
  for (const auto& r : results) {
    t.row({r.programName, r.toolLabel,
           TextTable::frac(r.detectorHit.successes, r.detectorHit.trials),
           std::to_string(r.warnings), std::to_string(r.trueWarnings),
           std::to_string(r.falseWarnings),
           TextTable::num(r.falseAlarmRate() * 100, 1) + "%"});
  }
  return t.render();
}

}  // namespace mtt::experiment
