#include "triage/probe.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "experiment/experiment.hpp"
#include "noise/noise.hpp"
#include "rt/controlled_runtime.hpp"
#include "suite/program.hpp"

namespace mtt::triage {

namespace {

/// Repair-mode schedule application, the minimizer's evaluation primitive.
/// A ddmin candidate is an edited decision vector, so some decisions may
/// name threads that are no longer enabled at their step (the deleted chunk
/// changed the interleaving).  Those decisions are consumed and skipped; an
/// exhausted vector falls back to deterministic round-robin.  The run the
/// repair actually produced is captured by the surrounding RecordingPolicy
/// and IS exactly replayable — that recording, not the edited input, becomes
/// the next current schedule.
class CandidatePolicy final : public rt::SchedulePolicy {
 public:
  explicit CandidatePolicy(std::vector<rt::Decision> decisions)
      : decisions_(std::move(decisions)) {}

  void onRunStart(std::uint64_t seed) override {
    (void)seed;
    next_ = 0;
    skips_ = 0;
    tailPicks_ = 0;
  }

  ThreadId pick(const rt::PickContext& ctx) override {
    while (next_ < decisions_.size()) {
      rt::Decision d = decisions_[next_++];
      if (!d.isThread()) {
        // A store pick where the run wants a thread: the edit misaligned
        // the vectors — drop it and keep the thread picks flowing.
        ++skips_;
        continue;
      }
      auto want = static_cast<ThreadId>(d.value);
      if (std::find(ctx.enabled.begin(), ctx.enabled.end(), want) !=
          ctx.enabled.end()) {
        return want;
      }
      ++skips_;
    }
    ++tailPicks_;
    return fallback_.pick(ctx);
  }

  std::uint32_t pickStore(const rt::StorePickContext& ctx) override {
    if (next_ < decisions_.size() && decisions_[next_].isStore()) {
      std::uint32_t age = decisions_[next_++].value;
      if (age < ctx.options.size()) return age;
      ++skips_;
      return 0;
    }
    // The vector expects a thread pick (or is exhausted) at this store
    // choice point: repair by observing the coherence-newest store without
    // consuming, so the thread picks stay aligned.
    ++skips_;
    return 0;
  }

  /// No decision was skipped and the round-robin tail never ran.
  bool exact() const { return skips_ == 0 && tailPicks_ == 0; }

 private:
  std::vector<rt::Decision> decisions_;
  std::size_t next_ = 0;
  std::uint64_t skips_ = 0;
  std::uint64_t tailPicks_ = 0;
  rt::RoundRobinPolicy fallback_;
};

/// Shared probe body: runs the program once on `tools` (or a stack built
/// for the call) under `inner`, recording, and signs the result.  `exact`
/// is sampled after the run.
ProbeResult executeProbe(const std::string& program,
                         std::unique_ptr<rt::SchedulePolicy> inner,
                         const ReplayToolConfig& cfg,
                         experiment::ToolStack* tools,
                         const std::function<bool()>& exact) {
  experiment::ToolStack own;
  if (tools == nullptr) tools = &(own = probeStack(cfg));
  auto prog = suite::makeProgram(program);
  prog->reset();

  auto recording = std::make_unique<rt::RecordingPolicy>(std::move(inner));
  const rt::RecordingPolicy& rec = *recording;
  tools->reset();
  auto& rt = static_cast<rt::ControlledRuntime&>(
      tools->runtime(RuntimeMode::Controlled, std::move(recording)));

  rt::RunOptions opts = prog->defaultRunOptions();
  opts.seed = cfg.seed;
  opts.programName = program;

  ProbeResult out;
  out.result = rt.run([&](rt::Runtime& rr) { prog->body(rr); }, opts);
  bool manifested =
      prog->evaluate(out.result) == suite::Verdict::BugManifested;
  out.outcome = prog->outcome();
  const auto& collector =  // probeStack registers it first
      static_cast<const SignatureCollector&>(*tools->listeners().front());
  out.signature = makeSignature(out.result, manifested, out.outcome,
                                collector.bugSiteTags());
  out.recorded = rec.schedule();
  out.noiseDecisions = rt.decisionNoise();
  out.exact = exact();
  return out;
}

}  // namespace

experiment::ToolStack probeStack(const ReplayToolConfig& cfg) {
  experiment::ToolStackBuilder builder;
  builder.listener(std::make_unique<SignatureCollector>());
  if (cfg.noiseName != "none" && !cfg.noiseName.empty()) {
    noise::NoiseOptions nopts;
    nopts.strength = cfg.strength;
    try {
      builder.noise(cfg.noiseName, nopts);
    } catch (const std::runtime_error&) {
      throw std::runtime_error("unknown noise heuristic '" + cfg.noiseName +
                               "' in replay tool config");
    }
  }
  return builder.build();
}

ReplayToolConfig toolConfigOf(const replay::Scenario& s) {
  ReplayToolConfig cfg;
  cfg.noiseName = s.noise;
  cfg.strength = s.strength;
  cfg.seed = s.seed;
  return cfg;
}

ProbeResult recordRun(const std::string& program,
                      std::unique_ptr<rt::SchedulePolicy> policy,
                      const ReplayToolConfig& cfg) {
  return executeProbe(program, std::move(policy), cfg, nullptr,
                      [] { return true; });
}

ProbeResult recordRun(const std::string& program, const std::string& policy,
                      const ReplayToolConfig& cfg) {
  return recordRun(program, experiment::makePolicy(policy), cfg);
}

ProbeResult probeExact(const std::string& program, const rt::Schedule& s,
                       const ReplayToolConfig& cfg,
                       experiment::ToolStack* tools) {
  auto rep = std::make_unique<rt::ReplayPolicy>(s);
  const rt::ReplayPolicy& r = *rep;
  return executeProbe(program, std::move(rep), cfg, tools,
                      [&r] { return !r.diverged(); });
}

ProbeResult probeCandidate(const std::string& program,
                           const std::vector<rt::Decision>& decisions,
                           const ReplayToolConfig& cfg,
                           experiment::ToolStack* tools) {
  auto cand = std::make_unique<CandidatePolicy>(decisions);
  const CandidatePolicy& c = *cand;
  return executeProbe(program, std::move(cand), cfg, tools,
                      [&c] { return c.exact(); });
}

std::size_t countPreemptions(const std::vector<rt::Decision>& decisions) {
  // Store picks are transparent: they belong to the thread scheduled just
  // before them, so the switch structure lives in the thread picks alone.
  std::vector<ThreadId> threads;
  threads.reserve(decisions.size());
  for (const rt::Decision& d : decisions) {
    if (d.isThread()) threads.push_back(static_cast<ThreadId>(d.value));
  }
  if (threads.size() < 2) return 0;
  // lastAt[t] = last index where thread t is scheduled.
  std::vector<std::size_t> lastAt;
  auto noteLast = [&lastAt](ThreadId t, std::size_t i) {
    if (t >= lastAt.size()) lastAt.resize(t + 1, 0);
    lastAt[t] = i;
  };
  for (std::size_t i = 0; i < threads.size(); ++i) {
    noteLast(threads[i], i);
  }
  std::size_t preemptions = 0;
  for (std::size_t i = 1; i < threads.size(); ++i) {
    ThreadId prev = threads[i - 1];
    if (threads[i] != prev && lastAt[prev] >= i) ++preemptions;
  }
  return preemptions;
}

}  // namespace mtt::triage
