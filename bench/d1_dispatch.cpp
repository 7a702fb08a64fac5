// D1 — Hook API v2 dispatch cost: what a kind-filtered (subscription-masked)
// hook chain saves over the old deliver-to-everyone chain.
//
// A real event stream (the "account" program under the controlled runtime)
// is recorded once, then pumped straight through a HookChain — no runtime,
// no scheduling, so the measured time is pure dispatch: table lookup, slot
// walk, listener call.  Each row compares N attached tools with their
// declared masks (v2 behaviour) against the same N tools forced onto
// EventMask::all() (the old chain, which delivered every event to every
// listener).  Results go to stdout and BENCH_dispatch.json.
// Criterion: one kind-filtered tool costs >= 30% less than unfiltered.
#include <cstdio>
#include <string>
#include <vector>

#include "core/event_mask.hpp"
#include "core/listener.hpp"
#include "core/table.hpp"
#include "experiments.hpp"
#include "race/detectors.hpp"
#include "rt/controlled_runtime.hpp"
#include "suite/program.hpp"
#include "trace/trace.hpp"

namespace mtt::bench {
namespace {

/// Minimal subscriber: the per-delivery work is one relaxed increment, so
/// the measurement isolates chain overhead rather than tool analysis cost.
class CountingTool final : public Listener {
 public:
  CountingTool(std::string name, EventMask mask)
      : name_(std::move(name)), mask_(mask) {}

  void onEvent(const Event& e) override {
    count_ += static_cast<std::uint64_t>(e.kind) + 1;
  }
  EventMask subscribedEvents() const override { return mask_; }
  std::string_view listenerName() const override { return name_; }

 private:
  std::string name_;
  EventMask mask_;
  std::uint64_t count_ = 0;
};

/// Representative masks of the real tool suite, in registration order:
/// lock-graph, fasttrack-like, variable-targeted noise, sync-only coverage,
/// thread-lifecycle, eraser-like.
std::vector<EventMask> toolMasks() {
  return {
      EventMask::locks() | EventMask{EventKind::CondWaitBegin,
                                     EventKind::CondWaitEnd},
      race::hbSyncMask() | EventMask::variable(),
      EventMask::variable(),
      EventMask::sync(),
      EventMask::threads(),
      EventMask::locks().without(EventKind::MutexTryLockFail) |
          EventMask::variable(),
  };
}

struct Cost {
  double nsPerEvent = 0.0;
  double deliveriesPerEvent = 0.0;
};

Cost measure(const std::vector<Event>& events, int toolCount, bool masked,
            std::size_t reps) {
  std::vector<EventMask> masks = toolMasks();
  std::vector<std::unique_ptr<CountingTool>> tools;
  HookChain chain;
  for (int i = 0; i < toolCount; ++i) {
    tools.push_back(std::make_unique<CountingTool>(
        "tool" + std::to_string(i), masks[static_cast<std::size_t>(i)]));
    chain.add(tools.back().get(),
              masked ? masks[static_cast<std::size_t>(i)] : EventMask::all());
  }
  RunInfo info;
  info.programName = internName("d1_dispatch");

  // Warm-up pass (faults in the tables), then the timed repetitions.
  chain.dispatchRunStart(info);
  for (const Event& e : events) chain.dispatchEvent(e);
  chain.dispatchRunEnd();

  chain.dispatchRunStart(info);
  const double seconds = bestWall(1, [&] {
    for (std::size_t r = 0; r < reps; ++r) {
      for (const Event& e : events) chain.dispatchEvent(e);
    }
  });
  DispatchStats stats = chain.stats();
  chain.dispatchRunEnd();

  const double n = static_cast<double>(events.size()) *
                   static_cast<double>(reps);
  return Cost{seconds * 1e9 / n, static_cast<double>(stats.deliveries) / n};
}

}  // namespace

bool runD1() {
  constexpr std::size_t reps = 400;

  // One recorded stream: every measurement dispatches identical events.
  // cache_server exercises mutexes, semaphores, rwlocks, and variables, so
  // every mask in the panel sees a realistic share of the stream.
  auto program = suite::makeProgram("cache_server");
  program->reset();
  rt::ControlledRuntime rt;
  trace::TraceRecorder rec(rt);
  rt.hooks().add(&rec);
  rt::RunOptions o = program->defaultRunOptions();
  o.seed = 0;
  o.programName = "cache_server";
  rt.run([&](rt::Runtime& rr) { program->body(rr); }, o);
  const std::vector<Event> events = rec.takeTrace().events;

  std::printf("%zu-event stream x %zu reps per row\n\n", events.size(),
              reps);

  TextTable t("D1 / masked (v2) vs unmasked (old chain) dispatch");
  t.header({"tools", "chain", "ns/event", "deliveries/event"});
  std::vector<Json> json;
  double oneUnmasked = 0.0, oneMasked = 0.0;
  for (int n : {0, 1, 3, 6}) {
    for (bool masked : {false, true}) {
      if (n == 0 && masked) continue;  // empty chain has no mask to apply
      const Cost c = measure(events, n, masked, reps);
      if (n == 1) (masked ? oneMasked : oneUnmasked) = c.nsPerEvent;
      t.row({std::to_string(n),
             n == 0 ? "empty" : (masked ? "masked" : "unmasked"),
             TextTable::num(c.nsPerEvent, 1),
             TextTable::num(c.deliveriesPerEvent, 2)});
      json.push_back(Json::object(
          {{"tools", n}, {"masked", masked},
           {"ns_per_event", c.nsPerEvent},
           {"deliveries_per_event", c.deliveriesPerEvent}}));
    }
  }
  t.print();

  // The acceptance number: one kind-filtered tool vs the old chain.
  const double reduction =
      oneUnmasked > 0.0 ? 1.0 - oneMasked / oneUnmasked : 0.0;
  std::printf(
      "\n1 kind-filtered tool: %.1f ns/event vs %.1f unfiltered "
      "(%.0f%% reduction, target >= 30%%)\n",
      oneMasked, oneUnmasked, reduction * 100.0);

  saveJson("D1", "dispatch",
           {{"events", events.size()}, {"reps", reps},
            {"rows", Json::array(json)},
            {"one_tool_masked_reduction", reduction}});
  return reduction >= 0.30;
}

}  // namespace mtt::bench
