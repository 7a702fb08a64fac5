// Owned tool stacks — Hook API v2's registration surface, and the run
// kernel every run loop keeps.
//
// Before v2, every campaign site (experiment, explore, farm, the CLI, the
// triage probes) hand-rolled the same dance: allocate detectors, allocate a
// noise maker bound to one runtime, call rt.hooks().add() in the right
// order, keep the unique_ptrs alive, and rebuild all of it for every run.
// A ToolStack owns the tools once, validates the ordering invariant at
// build time (noise makers register last, so analysis tools observe each
// event before the perturbation), and owns the one runtime its runs
// execute on, so a loop that keeps a stack reinitializes a runtime per run
// instead of building one.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/listener.hpp"
#include "coverage/coverage.hpp"
#include "deadlock/lockgraph.hpp"
#include "noise/noise.hpp"
#include "race/detectors.hpp"
#include "rt/policy.hpp"
#include "rt/runtime.hpp"
#include "trace/trace.hpp"

namespace mtt::experiment {

/// An ordered, owned set of tools, and the runtime they observe, for one
/// run at a time.  Move-only; build through ToolStackBuilder.
class ToolStack {
 public:
  ToolStack() = default;
  ToolStack(ToolStack&&) = default;
  ToolStack& operator=(ToolStack&&) = default;
  ToolStack(const ToolStack&) = delete;
  ToolStack& operator=(const ToolStack&) = delete;

  /// Re-targets every tool at `rt` (Listener::bindRuntime) and registers
  /// the stack with rt.hooks() in build order, once per runtime.  The stack
  /// must outlive the runtime's run() call.
  void attach(rt::Runtime& rt);

  /// The runtime this stack's runs execute on, tools attached: built on
  /// first use and again only when `mode` changes.  Controlled runs then
  /// schedule under `policy` (nullptr keeps the current one).
  rt::Runtime& runtime(RuntimeMode mode,
                       std::unique_ptr<rt::SchedulePolicy> policy);

  /// Returns every tool to its freshly-constructed observable state
  /// (Listener::resetTool).  executeRun calls this at the start of each
  /// run, which is what keeps reused stacks byte-identical to the old
  /// build-tools-per-run path.
  void reset();

  std::size_t size() const { return order_.size(); }

  /// Typed views into the stack (nullptr / empty when absent).
  const std::vector<race::RaceDetector*>& detectors() const {
    return detectors_;
  }
  deadlock::LockGraphDetector* lockGraph() const { return lockGraph_; }
  noise::NoiseMaker* noiseMaker() const { return noise_; }
  trace::TraceRecorder* traceRecorder() const { return recorder_; }
  mtt::coverage::CoverageModel* coverageModel() const { return coverage_; }

  /// All tools in registration order (owned and borrowed alike).
  const std::vector<Listener*>& listeners() const { return order_; }

 private:
  friend class ToolStackBuilder;
  std::vector<std::unique_ptr<Listener>> owned_;
  std::vector<Listener*> order_;
  std::vector<race::RaceDetector*> detectors_;
  deadlock::LockGraphDetector* lockGraph_ = nullptr;
  noise::NoiseMaker* noise_ = nullptr;
  trace::TraceRecorder* recorder_ = nullptr;
  mtt::coverage::CoverageModel* coverage_ = nullptr;
  std::unique_ptr<rt::Runtime> runtime_;
};

/// Builds a ToolStack and enforces the ordering convention the hook API has
/// always documented but never checked: analysis tools (detectors, lock
/// graph, coverage, recorders) first, noise makers last.  Adding an
/// analysis tool after a noise maker throws std::logic_error at the
/// offending call.
class ToolStackBuilder {
 public:
  /// Race detector by name ("eraser", "djit", "fasttrack", "hybrid");
  /// throws std::runtime_error on unknown names.
  ToolStackBuilder& detector(const std::string& name);

  /// The potential-deadlock lock-order detector.
  ToolStackBuilder& lockGraph();

  /// A trace recorder (bindRuntime supplies the symbol source per run).
  ToolStackBuilder& traceRecorder();

  /// A coverage model by factory name (coverage::makeCoverage); the model
  /// resolves object names through the runtime it is bound to per run.
  /// Throws std::invalid_argument on unknown names.
  ToolStackBuilder& coverage(const std::string& name);

  /// Any owned coverage model (e.g. one with a custom name resolver).
  ToolStackBuilder& coverageModel(
      std::unique_ptr<mtt::coverage::CoverageModel> model);

  /// Any owned analysis listener (coverage models, custom tools).
  ToolStackBuilder& listener(std::unique_ptr<Listener> tool);

  /// A borrowed analysis listener the caller keeps alive (e.g. a
  /// stack-local collector); the ToolStack registers but does not own it.
  ToolStackBuilder& borrowed(Listener* tool);

  /// Noise heuristic by factory name; "targeted" requires targetedNoise().
  /// Throws std::runtime_error on unknown names.
  ToolStackBuilder& noise(const std::string& name,
                          noise::NoiseOptions opts = {});

  /// TargetedNoise over a shared-variable name set.
  ToolStackBuilder& targetedNoise(std::set<std::string> sharedVarNames,
                                  noise::NoiseOptions opts = {});

  /// Any owned noise maker.
  ToolStackBuilder& noiseMaker(std::unique_ptr<noise::NoiseMaker> nm);

  ToolStack build();

 private:
  void addAnalysis(Listener* raw, std::unique_ptr<Listener> owned);
  void addNoise(std::unique_ptr<noise::NoiseMaker> nm);

  ToolStack stack_;
  bool sawNoise_ = false;
};

/// A thread-safe pool of interchangeable ToolStacks for parallel campaigns:
/// each worker leases a stack (and its runtime) per run instead of
/// rebuilding the tool set.
/// Locking happens only at run boundaries (acquire/release), never on the
/// event path.  The pool's internals are shared-ptr managed, so a lease
/// held by an abandoned (timed-out) worker stays valid even after the
/// campaign and pool are gone.
class ToolStackPool {
 public:
  explicit ToolStackPool(std::function<ToolStack()> factory);

  class Lease {
   public:
    Lease(Lease&&) = default;
    Lease& operator=(Lease&&) = default;
    ~Lease();

    ToolStack& operator*() { return *stack_; }
    ToolStack* operator->() { return stack_.get(); }

   private:
    friend class ToolStackPool;
    struct Shared;
    Lease(std::shared_ptr<Shared> shared, std::unique_ptr<ToolStack> stack);
    std::shared_ptr<Shared> shared_;
    std::unique_ptr<ToolStack> stack_;
  };

  /// Pops a pooled stack or builds a fresh one; the lease returns it on
  /// destruction.
  Lease acquire();

 private:
  std::shared_ptr<Lease::Shared> shared_;
};

}  // namespace mtt::experiment
