#include "experiment/tool_stack.hpp"

#include <stdexcept>
#include <utility>

#include "mem/mmrace.hpp"
#include "rt/controlled_runtime.hpp"
#include "rt/harness.hpp"

namespace mtt::experiment {

void ToolStack::attach(rt::Runtime& rt) {
  for (Listener* l : order_) {
    l->bindRuntime(rt);
    rt.hooks().add(l);
  }
}

rt::Runtime& ToolStack::runtime(RuntimeMode mode,
                                std::unique_ptr<rt::SchedulePolicy> policy) {
  if (runtime_ == nullptr || runtime_->mode() != mode) {
    runtime_ = rt::makeRuntime(mode, std::move(policy));
  } else if (mode == RuntimeMode::Controlled) {
    static_cast<rt::ControlledRuntime&>(*runtime_).setPolicy(
        std::move(policy));
  }
  // Every time: a caller may have attached the tools to another runtime
  // since the last run.
  attach(*runtime_);
  return *runtime_;
}

void ToolStack::reset() {
  for (Listener* l : order_) l->resetTool();
}

void ToolStackBuilder::addAnalysis(Listener* raw,
                                   std::unique_ptr<Listener> owned) {
  if (sawNoise_) {
    throw std::logic_error(
        "ToolStackBuilder: analysis tool added after a noise maker; "
        "noise makers must register last so analysis tools observe each "
        "event before the perturbation");
  }
  stack_.order_.push_back(raw);
  if (owned) stack_.owned_.push_back(std::move(owned));
}

void ToolStackBuilder::addNoise(std::unique_ptr<noise::NoiseMaker> nm) {
  noise::NoiseMaker* raw = nm.get();
  if (stack_.noise_ == nullptr) stack_.noise_ = raw;
  stack_.order_.push_back(raw);
  stack_.owned_.push_back(std::move(nm));
  sawNoise_ = true;
}

ToolStackBuilder& ToolStackBuilder::detector(const std::string& name) {
  std::unique_ptr<race::RaceDetector> det = race::makeDetector(name);
  // The memory-model-aware check lives in mtt::mem (it consumes the Atomic
  // event kinds, not variable accesses), so it is resolved here rather than
  // in race::detectorNames() — the classic four-column analyze reports stay
  // byte-stable.
  if (!det && name == "mmrace") {
    det = std::make_unique<mem::MemoryModelRaceDetector>();
  }
  if (!det) throw std::runtime_error("unknown detector " + name);
  race::RaceDetector* raw = det.get();
  stack_.detectors_.push_back(raw);
  addAnalysis(raw, std::move(det));
  return *this;
}

ToolStackBuilder& ToolStackBuilder::lockGraph() {
  auto lg = std::make_unique<deadlock::LockGraphDetector>();
  deadlock::LockGraphDetector* raw = lg.get();
  stack_.lockGraph_ = raw;
  addAnalysis(raw, std::move(lg));
  return *this;
}

ToolStackBuilder& ToolStackBuilder::traceRecorder() {
  auto rec = std::make_unique<trace::TraceRecorder>();
  trace::TraceRecorder* raw = rec.get();
  stack_.recorder_ = raw;
  addAnalysis(raw, std::move(rec));
  return *this;
}

ToolStackBuilder& ToolStackBuilder::coverage(const std::string& name) {
  return coverageModel(mtt::coverage::makeCoverage(name));
}

ToolStackBuilder& ToolStackBuilder::coverageModel(
    std::unique_ptr<mtt::coverage::CoverageModel> model) {
  mtt::coverage::CoverageModel* raw = model.get();
  if (stack_.coverage_ == nullptr) stack_.coverage_ = raw;
  addAnalysis(raw, std::move(model));
  return *this;
}

ToolStackBuilder& ToolStackBuilder::listener(std::unique_ptr<Listener> tool) {
  Listener* raw = tool.get();
  addAnalysis(raw, std::move(tool));
  return *this;
}

ToolStackBuilder& ToolStackBuilder::borrowed(Listener* tool) {
  addAnalysis(tool, nullptr);
  return *this;
}

ToolStackBuilder& ToolStackBuilder::noise(const std::string& name,
                                          noise::NoiseOptions opts) {
  auto nm = noise::makeNoise(name, opts);
  if (!nm) throw std::runtime_error("unknown noise heuristic " + name);
  addNoise(std::move(nm));
  return *this;
}

ToolStackBuilder& ToolStackBuilder::targetedNoise(
    std::set<std::string> sharedVarNames, noise::NoiseOptions opts) {
  addNoise(std::make_unique<noise::TargetedNoise>(std::move(sharedVarNames),
                                                 opts));
  return *this;
}

ToolStackBuilder& ToolStackBuilder::noiseMaker(
    std::unique_ptr<noise::NoiseMaker> nm) {
  addNoise(std::move(nm));
  return *this;
}

ToolStack ToolStackBuilder::build() { return std::move(stack_); }

// --- ToolStackPool -----------------------------------------------------------

struct ToolStackPool::Lease::Shared {
  std::mutex mu;
  std::vector<std::unique_ptr<ToolStack>> free;
  std::function<ToolStack()> factory;
};

ToolStackPool::ToolStackPool(std::function<ToolStack()> factory)
    : shared_(std::make_shared<Lease::Shared>()) {
  shared_->factory = std::move(factory);
}

ToolStackPool::Lease::Lease(std::shared_ptr<Shared> shared,
                            std::unique_ptr<ToolStack> stack)
    : shared_(std::move(shared)), stack_(std::move(stack)) {}

ToolStackPool::Lease::~Lease() {
  if (shared_ == nullptr || stack_ == nullptr) return;
  std::lock_guard<std::mutex> lk(shared_->mu);
  shared_->free.push_back(std::move(stack_));
}

ToolStackPool::Lease ToolStackPool::acquire() {
  {
    std::lock_guard<std::mutex> lk(shared_->mu);
    if (!shared_->free.empty()) {
      std::unique_ptr<ToolStack> s = std::move(shared_->free.back());
      shared_->free.pop_back();
      return Lease(shared_, std::move(s));
    }
  }
  // Build outside the lock: stack construction allocates tools.
  return Lease(shared_, std::make_unique<ToolStack>(shared_->factory()));
}

}  // namespace mtt::experiment
