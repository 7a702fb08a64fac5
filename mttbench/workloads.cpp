#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <map>
#include <random>
#include <stdexcept>

#include "experiment/experiment.hpp"
#include "explore/explorer.hpp"
#include "farm/record_io.hpp"
#include "guide/guide.hpp"
#include "model/checker.hpp"
#include "rt/harness.hpp"
#include "suite/program.hpp"
#include "triage/probe.hpp"
#include "triage/shrink.hpp"

namespace mttbench {
namespace {

using namespace mtt;
using experiment::RunObservation;
using experiment::RunSpec;

template <typename T>
void shuffleBySeed(std::vector<T>& v, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::shuffle(v.begin(), v.end(), rng);
}

// Digest lines are collected per task and joined in sorted order, so the
// digest does not depend on the --seed task order.
std::string joinSorted(std::vector<std::string> lines) {
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

void fail(PassResult& res, std::string why) {
  ++res.failed;
  res.problems.push_back(std::move(why));
}

// Median, or 0 for a layer the traced passes never reached (quick mode).
double medianOr0(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : median(xs);
}
double meanOr0(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : mean(xs);
}

// Every observation field except the wall-clock ones.
bool sameObservation(const RunObservation& a, const RunObservation& b) {
  return a.runIndex == b.runIndex && a.seed == b.seed &&
         a.status == b.status && a.manifested == b.manifested &&
         a.hasDetectors == b.hasDetectors && a.detectorHit == b.detectorHit &&
         a.warnings == b.warnings && a.trueWarnings == b.trueWarnings &&
         a.falseWarnings == b.falseWarnings &&
         a.deadlockPotentials == b.deadlockPotentials &&
         a.events == b.events && a.noiseInjections == b.noiseInjections &&
         a.outcome == b.outcome && a.failureMessage == b.failureMessage &&
         a.dispatchDeliveries == b.dispatchDeliveries &&
         a.coverage == b.coverage && a.attempts == b.attempts;
}

// --------------------------------------------------------------------------
// hunt: find, shrink and replay.
// --------------------------------------------------------------------------

// Buggy programs of the threads, atomics and evloop families.  Left out:
// wall_stall (real-sleeps when its bug manifests), evloop_quota_sessions
// (~24 ms per run), crash_deref (a real SIGSEGV under an environment
// switch) and double_checked_lock (1.5% find rate under pct: its hunts
// alone would double the pass).
const std::vector<std::string> kHuntPrograms = {
    "account",          "bank_transfer",        "check_then_act",
    "read_modify_write", "order_violation",     "notify_lost",
    "bounded_buffer_bug", "work_queue",          "lock_order_inversion",
    "philosophers_deadlock", "rwlock_cache",     "mp_reorder",
    "flag_publish",     "seqlock_torn_read",    "iriw",
    "evloop_conn_pool", "evloop_lru_cache"};
const std::vector<std::string> kHuntPolicies = {"random", "pct", "pos"};
constexpr std::uint64_t kStreamStride = 1000003;
constexpr std::size_t kMaxRunsPerHunt = 5000;

struct HuntTask {
  RunSpec spec;
  std::string policy;
  std::size_t stream = 0;
  bool evloop = false;
  std::string key() const {
    return spec.programName + "/" + policy + "/s" + std::to_string(stream);
  }
};

class Hunt final : public Workload {
 public:
  explicit Hunt(const Config& cfg) {
    std::vector<std::string> programs = kHuntPrograms;
    std::size_t streams = 6;
    if (cfg.quick) {
      programs = {"account", "mp_reorder", "evloop_lru_cache"};
      streams = 1;
    }
    experiment::ToolConfig tool;
    tool.detectors = {"fasttrack"};
    tools_ = experiment::makeToolStack(tool);
    for (const std::string& p : programs) {
      bool evloop = false;
      for (const std::string& tag : suite::ProgramRegistry::instance().tagsOf(p)) {
        evloop = evloop || tag == "evloop";
      }
      for (const std::string& pol : kHuntPolicies) {
        for (std::size_t k = 0; k < streams; ++k) {
          HuntTask t;
          t.spec.programName = p;
          t.spec.tool = tool;
          t.spec.tool.policy = pol;
          t.spec.seedBase = cfg.huntSeed + k * kStreamStride;
          t.policy = pol;
          t.stream = k;
          t.evloop = evloop;
          tasks_.push_back(std::move(t));
        }
      }
    }
    witnessPrograms_ = programs;
    shuffleBySeed(tasks_, cfg.orderSeed);
    shuffleBySeed(witnessPrograms_, cfg.orderSeed + 1);
  }

  PassResult pass() override { return run(nullptr); }
  PassResult tracedPass(Tracer& t) override { return run(&t); }

  void verify(std::vector<std::string>& problems) override {
    // The traced copy of executeRun must observe what executeRun observes;
    // tracedPass counts mismatches as it goes.
    if (copyCompared_ == 0) {
      // Untraced runs compare the copy on the first run of each task.
      Tracer scratch;
      RunSample unused;
      for (const HuntTask& t : tasks_) {
        RunObservation copy = tracedExecuteRun(t, 0, scratch, unused);
        RunObservation real = experiment::executeRun(t.spec, 0, tools_);
        ++copyCompared_;
        if (!sameObservation(copy, real)) ++copyMismatches_;
        scratch.clear();
      }
    }
    if (copyMismatches_ != 0) {
      problems.push_back("hunt: the traced copy of executeRun disagreed with "
                         "executeRun on " + std::to_string(copyMismatches_) +
                         " of " + std::to_string(copyCompared_) + " runs");
    }
  }

  void layerMetrics(const Tracer& tr, std::vector<Metric>& out) const override {
    auto column = [this](double RunSample::*field, bool evloopOnly = false) {
      std::vector<double> xs;
      for (const RunSample& s : split_) {
        if (!evloopOnly || s.evloop) xs.push_back(s.*field);
      }
      return xs;
    };
    const std::vector<double> runUs = column(&RunSample::runUs);
    out.push_back({"rt.run_us_p50", medianOr0(runUs), "us"});
    out.push_back({"rt.run_us_p99",
                   runUs.empty() ? 0.0 : percentile(runUs, 0.99), "us"});
    out.push_back({"rt.run_us_p50.evloop",
                   medianOr0(column(&RunSample::runUs, true)), "us"});
    out.push_back({"rt.make_us", medianOr0(column(&RunSample::rtMakeUs)),
                   "us"});
    out.push_back({"rt.ctx_switches_per_run",
                   meanOr0(column(&RunSample::ctxSwitches)), "count"});
    out.push_back({"rt.allocs_per_run", meanOr0(allocsPerRun_), "count"});
    out.push_back({"rt.decisions_per_run",
                   meanOr0(column(&RunSample::decisions)), "count"});
    out.push_back({"rt.events_per_run", meanOr0(column(&RunSample::events)),
                   "count"});
    for (const std::string& pol : kHuntPolicies) {
      auto it = runsToFind_.find(pol);
      out.push_back({"rt.runs_to_find." + pol,
                     it == runsToFind_.end() ? 0.0 : mean(it->second),
                     "runs"});
    }
    out.push_back({"suite.make_us", medianOr0(column(&RunSample::suiteMakeUs)),
                   "us"});
    out.push_back({"suite.evaluate_us",
                   medianOr0(column(&RunSample::evaluateUs)), "us"});
    out.push_back({"experiment.tools_us", medianOr0(column(&RunSample::toolsUs)),
                   "us"});
    out.push_back({"experiment.observe_us",
                   medianOr0(column(&RunSample::observeUs)), "us"});
    out.push_back({"experiment.run_us_p50", medianOr0(wholeUs_), "us"});
    double dispatchNs = 0.0;
    double dispatchEvents = 0.0;
    for (const auto& [ns, ev] : dispatch_) {
      dispatchNs += ns * ev;
      dispatchEvents += ev;
    }
    out.push_back({"core.dispatch_ns_per_event",
                   dispatchEvents > 0 ? dispatchNs / dispatchEvents : 0.0,
                   "ns"});
    out.push_back({"triage.shrink_s", medianOr0(shrinkPassS_), "s"});
    out.push_back({"triage.validations", meanOr0(validations_), "count"});
    out.push_back({"triage.removed_ratio", meanOr0(removed_), "ratio"});
    out.push_back({"replay.probe_us", medianOr0(tr.durationsUs("replay.probe")),
                   "us"});
  }

 private:
  // One traced execution, split into the steps of executeRun.
  struct RunSample {
    double suiteMakeUs = 0, rtMakeUs = 0, toolsUs = 0, runUs = 0,
           evaluateUs = 0, observeUs = 0;
    double ctxSwitches = 0, decisions = 0, events = 0;
    bool evloop = false;
  };

  static double spanUs(const Tracer& tr, int id) {
    const Tracer::Span& s = tr.spans()[static_cast<std::size_t>(id)];
    return static_cast<double>(s.endNs - s.startNs) / 1e3;
  }

  // executeRun (src/experiment/experiment.cpp) step by step through the
  // same public calls, each step in its own span.  The flight-recorder
  // bracket is left out: it is armed only in forked farm workers.
  RunObservation tracedExecuteRun(const HuntTask& task, std::size_t i,
                                  Tracer& tr, RunSample& sample) {
    const RunSpec& spec = task.spec;
    const int outer = tr.begin("experiment.run_copy");
    int id = tr.begin("suite.make");
    std::unique_ptr<suite::Program> program =
        suite::makeProgram(spec.programName);
    program->reset();
    tr.end(id);
    sample.suiteMakeUs = spanUs(tr, id);
    id = tr.begin("rt.make");
    std::unique_ptr<rt::Runtime> runtime = rt::makeRuntime(
        spec.tool.mode, experiment::makePolicy(spec.tool.policy));
    tr.end(id);
    sample.rtMakeUs = spanUs(tr, id);
    id = tr.begin("experiment.tools");
    tools_.reset();
    tools_.attach(*runtime);
    tr.end(id);
    sample.toolsUs = spanUs(tr, id);
    rt::RunOptions opts =
        spec.runOptions ? *spec.runOptions : program->defaultRunOptions();
    opts.seed = spec.seedBase + i;
    opts.programName = spec.programName;

    const std::uint64_t cs0 = contextSwitches();
    id = tr.begin("rt.run");
    rt::RunResult r =
        runtime->run([&](rt::Runtime& rr) { program->body(rr); }, opts);
    tr.end(id);
    sample.ctxSwitches = static_cast<double>(contextSwitches() - cs0);
    sample.runUs = spanUs(tr, id);
    sample.evloop = task.evloop;
    sample.decisions = static_cast<double>(r.steps);
    sample.events = static_cast<double>(r.events);

    RunObservation obs;
    obs.runIndex = i;
    obs.seed = opts.seed;
    obs.status = std::string(to_string(r.status));
    id = tr.begin("suite.evaluate");
    obs.manifested = program->evaluate(r) == suite::Verdict::BugManifested;
    tr.end(id);
    sample.evaluateUs = spanUs(tr, id);
    obs.hasDetectors = !tools_.detectors().empty();
    for (race::RaceDetector* det : tools_.detectors()) {
      obs.warnings += det->warningCount();
      obs.trueWarnings += det->trueAlarms();
      obs.falseWarnings += det->falseAlarms();
      obs.detectorHit = obs.detectorHit || det->foundAnnotatedBug();
    }
    if (tools_.lockGraph() != nullptr) {
      obs.deadlockPotentials = tools_.lockGraph()->warnings().size();
    }
    obs.wallSeconds = r.wallSeconds;
    obs.events = r.events;
    if (tools_.noiseMaker() != nullptr) {
      obs.noiseInjections = tools_.noiseMaker()->injections();
    }
    obs.outcome = program->outcome();
    obs.failureMessage = r.failureMessage;
    obs.dispatchDeliveries = r.dispatch.deliveries;
    obs.dispatchNsPerEvent = r.dispatch.nsPerEvent();
    if (tools_.coverageModel() != nullptr) {
      obs.coverage = tools_.coverageModel()->runSnapshot().encode();
    }
    tr.end(outer);
    sample.observeUs = static_cast<double>(tr.selfNs(outer)) / 1e3;
    return obs;
  }

  PassResult run(Tracer* tr) {
    PassResult res;
    std::vector<std::string> lines;
    std::map<std::string, std::uint64_t> witnessSeed;
    // (task, run index) of every traced execution, re-run after the
    // mirrored pass.
    std::vector<std::pair<const HuntTask*, std::size_t>> executed;
    RunSample unused;
    const int passSpan = tr ? tr->begin("hunt.pass") : -1;
    for (const HuntTask& task : tasks_) {
      ++res.operations;
      bool found = false;
      std::size_t i = 0;
      for (; i < kMaxRunsPerHunt; ++i) {
        ++res.executions;
        RunObservation obs =
            tr ? tracedExecuteRun(task, i, *tr, unused)
               : experiment::executeRun(task.spec, i, tools_);
        if (tr) executed.emplace_back(&task, i);
        if (obs.manifested) {
          found = true;
          break;
        }
      }
      if (!found) {
        fail(res, "hunt " + task.key() + ": no manifestation in " +
                     std::to_string(kMaxRunsPerHunt) + " runs");
        lines.push_back(task.key() + " not-found");
        continue;
      }
      lines.push_back(task.key() + " runs " + std::to_string(i + 1));
      if (tr) runsToFind_[task.policy].push_back(static_cast<double>(i + 1));
      if (task.policy == "random" && task.stream == 0) {
        witnessSeed[task.spec.programName] = task.spec.seedBase + i;
      }
    }

    double shrinkS = 0.0;
    for (const std::string& program : witnessPrograms_) {
      auto ws = witnessSeed.find(program);
      if (ws == witnessSeed.end()) continue;  // its hunt already failed
      ++res.operations;
      triage::ReplayToolConfig cfg;
      cfg.seed = ws->second;
      triage::ProbeResult rec;
      {
        Tracer::Scope s(tr, "triage.record");
        rec = triage::recordRun(program, "random", cfg);
      }
      ++res.executions;
      replay::Scenario sc;
      sc.program = program;
      sc.seed = cfg.seed;
      sc.policy = "random";
      sc.schedule = rec.recorded;
      triage::ShrinkOptions so;
      so.jobs = 1;
      triage::ShrinkResult sh;
      {
        const std::int64_t t0 = nowNs();
        Tracer::Scope s(tr, "triage.shrink");
        sh = triage::shrinkScenario(sc, so);
        shrinkS += static_cast<double>(nowNs() - t0) / 1e9;
      }
      res.executions += sh.validations;
      triage::ProbeResult replayed;
      {
        Tracer::Scope s(tr, "replay.probe");
        replayed = triage::probeExact(program, sh.minimized.schedule,
                                      triage::toolConfigOf(sh.minimized));
      }
      ++res.executions;
      if (tr) {
        validations_.push_back(static_cast<double>(sh.validations));
        removed_.push_back(sh.removedRatio());
      }
      std::string line = "witness " + program + " seed " +
                         std::to_string(cfg.seed) + " len " +
                         std::to_string(rec.recorded.size()) + "->" +
                         std::to_string(sh.minimized.schedule.size()) +
                         " validations " + std::to_string(sh.validations) +
                         " fp " + rec.signature.fingerprint();
      lines.push_back(line);
      if (!rec.signature.failure()) {
        fail(res, "hunt " + program + ": the recorded witness did not manifest");
      } else if (!sh.reproduced || !sh.verifiedExact ||
                 !(sh.signature == rec.signature)) {
        fail(res, "hunt " + program + ": shrinking lost the witness");
      } else if (!replayed.exact || !(replayed.signature == rec.signature) ||
                 sh.minimized.schedule.size() > rec.recorded.size()) {
        fail(res, "hunt " + program +
                     ": the shrunk witness does not replay exactly with the "
                     "same signature");
      }
    }
    if (tr) {
      tr->end(passSpan);
      shrinkPassS_.push_back(shrinkS);
      // Outside the mirrored pass, every traced (spec, index) once more
      // through the copy and through executeRun itself, back to back in
      // alternating order, so the split and the whole are timed under the
      // same conditions and their observations compared.
      Tracer scratch;
      for (std::size_t k = 0; k < executed.size(); ++k) {
        const auto [task, i] = executed[k];
        RunObservation copy, real;
        auto viaCopy = [&] {
          scratch.clear();
          RunSample s;
          copy = tracedExecuteRun(*task, i, scratch, s);
          split_.push_back(s);
        };
        auto viaExecuteRun = [&] {
          const std::uint64_t a0 = allocationCount();
          const std::int64_t t0 = nowNs();
          real = experiment::executeRun(task->spec, i, tools_);
          wholeUs_.push_back(static_cast<double>(nowNs() - t0) / 1e3);
          allocsPerRun_.push_back(
              static_cast<double>(allocationCount() - a0));
        };
        if (k % 2 == 0) {
          viaCopy();
          viaExecuteRun();
        } else {
          viaExecuteRun();
          viaCopy();
        }
        ++copyCompared_;
        if (!sameObservation(copy, real)) ++copyMismatches_;
      }
      // Dispatch cost needs RunOptions::dispatchTiming, which adds two
      // clock reads per delivery, so it gets runs of its own: the first
      // run of every task.
      for (const HuntTask& task : tasks_) {
        RunSpec timed = task.spec;
        auto program = suite::makeProgram(task.spec.programName);
        rt::RunOptions o = program->defaultRunOptions();
        o.dispatchTiming = true;
        timed.runOptions = o;
        RunObservation obs = experiment::executeRun(timed, 0, tools_);
        dispatch_.emplace_back(obs.dispatchNsPerEvent,
                               static_cast<double>(obs.events));
      }
    }
    res.digest = joinSorted(std::move(lines));
    return res;
  }

  std::vector<HuntTask> tasks_;
  std::vector<std::string> witnessPrograms_;
  experiment::ToolStack tools_;

  // Traced-pass observations.
  std::vector<RunSample> split_;
  std::vector<double> wholeUs_, allocsPerRun_, validations_, removed_,
      shrinkPassS_;
  std::map<std::string, std::vector<double>> runsToFind_;
  std::vector<std::pair<double, double>> dispatch_;  // (ns/event, events)
  std::uint64_t copyCompared_ = 0;
  std::uint64_t copyMismatches_ = 0;
};

// --------------------------------------------------------------------------
// explore: prove the controls clean, find first bugs.
// --------------------------------------------------------------------------

// Controls whose schedule space exhausts under sleep sets within
// kExploreBudget executions.  Left out because they do not exhaust within
// it: work_queue_ok, rwlock_stats, cache_server_fixed and the evloop
// controls.
const std::vector<std::string> kExploreControls = {
    "philosophers_ordered", "iriw_fixed",        "stat_counter_sharded",
    "bounded_buffer_ok",    "account_sync",      "producer_consumer_sem",
    "mp_reorder_fixed",     "flag_publish_fixed", "seqlock_torn_read_fixed",
    "ticket_lottery"};
// Small buggy programs explored to their first bug.
const std::vector<std::string> kExploreBuggy = {
    "account",         "read_modify_write", "check_then_act",
    "order_violation", "lock_order_inversion", "philosophers_deadlock",
    "notify_lost",     "mp_reorder",        "flag_publish"};
// Programs small enough for naive search (no sleep sets) to finish within
// the budget: the cross-check of sleep-set verdicts.
const std::vector<std::string> kNaiveCheck = {
    "account_sync", "producer_consumer_sem", "flag_publish_fixed",
    "account", "order_violation", "flag_publish"};
constexpr std::uint64_t kExploreBudget = 20000;

struct ExploreTask {
  std::string program;
  bool control = false;
};

explore::ExploreResult exploreProgram(const std::string& program,
                                      bool sleepSets) {
  RunSpec spec;
  spec.programName = program;
  explore::ExploreOptions o;
  o.maxSchedules = kExploreBudget;
  o.sleepSets = sleepSets;
  o.stopAtFirstBug = true;
  return explore::exploreSpec(spec, o);
}

class Explore final : public Workload {
 public:
  explicit Explore(const Config& cfg) {
    std::vector<std::string> controls = kExploreControls;
    std::vector<std::string> buggy = kExploreBuggy;
    if (cfg.quick) {
      controls = {"stat_counter_sharded", "account_sync", "mp_reorder_fixed"};
      buggy = {"account", "flag_publish"};
    }
    for (const std::string& p : controls) tasks_.push_back({p, true});
    for (const std::string& p : buggy) tasks_.push_back({p, false});
    shuffleBySeed(tasks_, cfg.orderSeed);
  }

  PassResult pass() override { return run(nullptr); }
  PassResult tracedPass(Tracer& t) override { return run(&t); }

  void verify(std::vector<std::string>& problems) override {
    for (const ExploreTask& t : tasks_) {
      const explore::ExploreResult r = exploreProgram(t.program, true);
      if (r.bugFound) {
        // The counterexample must replay exactly and manifest.
        triage::ReplayToolConfig cfg;
        triage::ProbeResult p =
            triage::probeExact(t.program, r.counterexample, cfg);
        if (!p.exact || !p.signature.failure()) {
          problems.push_back("explore " + t.program +
                             ": the counterexample does not replay exactly "
                             "to a failure");
        }
      }
      // Verdicts against the IR model checker where a model exists.
      auto program = suite::makeProgram(t.program);
      if (const model::Program* ir = program->irModel()) {
        const model::CheckResult mc = model::check(*ir);
        if (!mc.exhausted && !mc.foundBug()) {
          problems.push_back("explore " + t.program +
                             ": the model checker did not finish");
        } else if (mc.foundBug() != r.bugFound) {
          problems.push_back("explore " + t.program + ": explorer says " +
                             (r.bugFound ? "bug" : "clean") +
                             ", model checker says " +
                             (mc.foundBug() ? "bug" : "clean"));
        }
      }
      // Verdicts against naive search on the smallest programs.
      if (std::find(kNaiveCheck.begin(), kNaiveCheck.end(), t.program) !=
          kNaiveCheck.end()) {
        const explore::ExploreResult naive = exploreProgram(t.program, false);
        if (!naive.bugFound && !naive.exhausted) {
          problems.push_back("explore " + t.program +
                             ": naive search did not finish");
        } else if (naive.bugFound != r.bugFound) {
          problems.push_back("explore " + t.program +
                             ": sleep-set and naive search disagree");
        }
      }
    }
  }

  void layerMetrics(const Tracer& tr, std::vector<Metric>& out) const override {
    const double execs =
        static_cast<double>(lastSchedules_ + lastPruned_);
    out.push_back({"explore.schedules", static_cast<double>(lastSchedules_),
                   "count"});
    out.push_back({"explore.pruned_runs", static_cast<double>(lastPruned_),
                   "count"});
    out.push_back({"explore.steps", static_cast<double>(lastSteps_), "count"});
    out.push_back({"explore.useful_ratio",
                   execs > 0 ? static_cast<double>(lastSchedules_) / execs
                             : 0.0,
                   "ratio"});
    const std::vector<double> passUs = tr.durationsUs("explore.pass");
    out.push_back({"explore.us_per_execution",
                   execs > 0 && !passUs.empty() ? median(passUs) / execs : 0.0,
                   "us"});
    out.push_back({"explore.ctx_switches_per_execution",
                   execs > 0 ? meanOr0(ctxPerPass_) / execs : 0.0, "count"});
  }

 private:
  PassResult run(Tracer* tr) {
    PassResult res;
    std::vector<std::string> lines;
    std::uint64_t schedules = 0, pruned = 0, steps = 0;
    const std::uint64_t cs0 = contextSwitches();
    const int passSpan = tr ? tr->begin("explore.pass") : -1;
    for (const ExploreTask& t : tasks_) {
      ++res.operations;
      explore::ExploreResult r;
      {
        Tracer::Scope s(tr, "explore.exploreSpec");
        r = exploreProgram(t.program, true);
      }
      res.executions += r.schedules + r.prunedRuns;
      schedules += r.schedules;
      pruned += r.prunedRuns;
      steps += r.totalSteps;
      lines.push_back(t.program + " schedules " + std::to_string(r.schedules) +
                      " pruned " + std::to_string(r.prunedRuns) + " steps " +
                      std::to_string(r.totalSteps) +
                      (r.bugFound ? " bug@" + std::to_string(r.firstBugSchedule)
                                  : std::string(" clean")) +
                      (r.exhausted ? " exhausted" : ""));
      if (t.control && (r.bugFound || !r.exhausted)) {
        fail(res, "explore " + t.program + ": control " +
                     (r.bugFound ? "reported a bug" : "did not exhaust"));
      } else if (!t.control && !r.bugFound) {
        fail(res, "explore " + t.program + ": no bug found");
      }
    }
    if (tr) {
      tr->end(passSpan);
      ctxPerPass_.push_back(static_cast<double>(contextSwitches() - cs0));
      lastSchedules_ = schedules;
      lastPruned_ = pruned;
      lastSteps_ = steps;
    }
    res.digest = joinSorted(std::move(lines));
    return res;
  }

  std::vector<ExploreTask> tasks_;
  std::vector<double> ctxPerPass_;
  std::uint64_t lastSchedules_ = 0, lastPruned_ = 0, lastSteps_ = 0;
};

// --------------------------------------------------------------------------
// campaign: isolated, journaled, guided campaigns and their resume.
// --------------------------------------------------------------------------

const std::vector<std::string> kCampaignPrograms = {
    "account", "check_then_act", "order_violation"};
constexpr std::uint64_t kCampaignBudget = 200;

struct CampaignRun {
  guide::GuideResult result;
  std::string report;  // timing-free
};

class Campaign final : public Workload {
 public:
  explicit Campaign(const Config& cfg)
      : dir_(std::filesystem::path(cfg.outDir) / "campaign"),
        programs_(cfg.quick ? std::vector<std::string>{"account"}
                            : kCampaignPrograms),
        budget_(cfg.quick ? 40 : kCampaignBudget),
        seed_(cfg.campaignSeed) {
    std::filesystem::create_directories(dir_);
    shuffleBySeed(programs_, cfg.orderSeed);
  }

  PassResult pass() override { return run(nullptr); }
  PassResult tracedPass(Tracer& t) override { return run(&t); }

  void verify(std::vector<std::string>& problems) override {
    for (const std::string& p : programs_) {
      const CampaignRun isolated = campaign(p, true, true, false);
      const CampaignRun reference = campaign(p, false, false, false);
      if (isolated.report != reference.report) {
        problems.push_back("campaign " + p +
                           ": the isolated, journaled report differs from "
                           "the in-process report");
      }
      const CampaignRun resumed = campaign(p, true, true, true);
      if (!resumeMatches(isolated, resumed)) {
        problems.push_back("campaign " + p +
                           ": resume from the complete journal did not "
                           "reproduce the report without executing");
      }
    }
  }

  void layerMetrics(const Tracer& tr, std::vector<Metric>& out) const override {
    const double runs = static_cast<double>(budget_ * programs_.size());
    const double iso = medianOr0(tr.durationsUs("farm.campaign_isolated"));
    const double jour = medianOr0(tr.durationsUs("farm.campaign_journaled"));
    const double plain = medianOr0(tr.durationsUs("farm.campaign_inprocess"));
    out.push_back({"farm.isolate_us_per_run", (iso - jour) / runs, "us"});
    out.push_back({"farm.journal_us_per_run", (jour - plain) / runs, "us"});
    out.push_back({"farm.journal_bytes_per_run", journalBytes_ / runs,
                   "bytes"});
    out.push_back({"farm.record_codec_us",
                   codecRecords_ > 0
                       ? medianOr0(tr.durationsUs("farm.record_codec")) /
                             static_cast<double>(codecRecords_)
                       : 0.0,
                   "us"});
    out.push_back({"farm.resume_s",
                   medianOr0(tr.durationsUs("farm.resume")) / 1e6, "s"});
    out.push_back({"coverage.snapshot_bytes_per_run", snapshotBytes_ / runs,
                   "bytes"});
  }

 private:
  std::string journalPath(const std::string& program) const {
    return (dir_ / (program + ".journal")).string();
  }

  CampaignRun campaign(const std::string& program, bool isolate,
                       bool journal, bool resume) const {
    RunSpec base;
    base.programName = program;
    base.seedBase = seed_;
    base.tool.coverage = "switch-pair";
    base.tool.detectors = {"eraser", "fasttrack"};
    guide::GuideOptions go;
    go.budget = budget_;
    go.farm.jobs = 1;
    go.farm.model =
        isolate ? farm::WorkerModel::Process : farm::WorkerModel::Thread;
    if (journal) {
      go.farm.journalPath = journalPath(program);
      go.farm.resume = resume;
      if (!resume) {
        std::filesystem::remove(go.farm.journalPath);
        std::filesystem::remove(go.farm.journalPath + ".arms");
      }
    }
    CampaignRun out;
    out.result = guide::runGuided(base, go);
    out.report = guide::guideReport(out.result, false);
    return out;
  }

  // A resume from a complete journal folds every record from the journal
  // (executes nothing) and reports the same campaign; its report differs
  // only by the "(N from journal)" note on the runs line.
  static bool resumeMatches(const CampaignRun& original,
                            const CampaignRun& resumed) {
    const std::size_t n = original.result.runs();
    if (resumed.result.resumed != n || resumed.result.runs() != n) {
      return false;
    }
    std::string expect = original.report;
    const std::string runsLine = "runs: " + std::to_string(n) + "/" +
                                 std::to_string(original.result.budget);
    const std::size_t at = expect.find(runsLine + "\n");
    if (at == std::string::npos) return false;
    expect.insert(at + runsLine.size(),
                  " (" + std::to_string(n) + " from journal)");
    return resumed.report == expect;
  }

  PassResult run(Tracer* tr) {
    PassResult res;
    std::vector<std::string> lines;
    const int passSpan = tr ? tr->begin("campaign.pass") : -1;
    std::vector<CampaignRun> isolated;
    for (const std::string& p : programs_) {
      res.operations += 2;
      CampaignRun c;
      {
        Tracer::Scope s(tr, "farm.campaign_isolated");
        c = campaign(p, true, true, false);
      }
      CampaignRun r;
      {
        Tracer::Scope s(tr, "farm.resume");
        r = campaign(p, true, true, true);
      }
      res.executions += c.result.runs();
      if (c.result.runs() != budget_ || c.result.timeouts != 0 ||
          c.result.crashes != 0 || c.result.infraErrors != 0) {
        fail(res, "campaign " + p + ": " + std::to_string(c.result.runs()) +
                     " of " + std::to_string(budget_) +
                     " runs folded cleanly");
      }
      if (!resumeMatches(c, r)) {
        fail(res, "campaign " + p + ": resume did not reproduce the report");
      }
      lines.push_back("campaign " + p + "\n" + c.report);
      isolated.push_back(std::move(c));
    }
    if (tr) {
      tr->end(passSpan);
      // Outside the mirrored pass: the same campaigns in process, with and
      // without a journal, so isolation and journal costs are differences.
      journalBytes_ = 0.0;
      snapshotBytes_ = 0.0;
      codecRecords_ = 0;
      for (std::size_t k = 0; k < programs_.size(); ++k) {
        const std::string& p = programs_[k];
        journalBytes_ +=
            static_cast<double>(std::filesystem::file_size(journalPath(p)));
        {
          Tracer::Scope s(tr, "farm.campaign_journaled");
          campaign(p, false, true, false);
        }
        CampaignRun plain;
        {
          Tracer::Scope s(tr, "farm.campaign_inprocess");
          plain = campaign(p, false, false, false);
        }
        if (plain.report != isolated[k].report) {
          fail(res, "campaign " + p +
                       ": the in-process report differs from the isolated one");
        }
        for (const RunObservation& o : isolated[k].result.records) {
          snapshotBytes_ += static_cast<double>(o.coverage.size());
        }
      }
      // The pipe-record codec over every record of the pass.
      {
        Tracer::Scope s(tr, "farm.record_codec");
        for (const CampaignRun& c : isolated) {
          for (const RunObservation& o : c.result.records) {
            RunObservation back;
            if (!farm::decodePipeRecord(farm::encodePipeRecord(o), back) ||
                !sameObservation(o, back)) {
              fail(res, "campaign: a pipe record did not round-trip");
            }
            ++codecRecords_;
          }
        }
      }
    }
    res.digest = joinSorted(std::move(lines));
    return res;
  }

  std::filesystem::path dir_;
  std::vector<std::string> programs_;
  std::uint64_t budget_;
  std::uint64_t seed_;
  double journalBytes_ = 0.0;
  double snapshotBytes_ = 0.0;
  std::uint64_t codecRecords_ = 0;
};

}  // namespace

std::vector<std::string> workloadNames() {
  return {"hunt", "explore", "campaign"};
}

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       const Config& cfg) {
  suite::registerBuiltins();
  if (name == "hunt") return std::make_unique<Hunt>(cfg);
  if (name == "explore") return std::make_unique<Explore>(cfg);
  if (name == "campaign") return std::make_unique<Campaign>(cfg);
  throw std::invalid_argument("unknown workload '" + name +
                              "' (valid: hunt, explore, campaign)");
}

}  // namespace mttbench
