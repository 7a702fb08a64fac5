// Worker-lethal benchmark programs for the farm's crash isolation and the
// postmortem flight recorder: one that segfaults and one that wall-clock
// hangs when its order violation manifests.
//
// Both are environment-gated so the lethal behavior only fires inside a
// disposable forked worker: without the variable set, a manifestation
// reports through rt.fail() instead, which keeps in-process replay, shrink,
// and corpus verification of the postmortem scenarios safe and
// deterministic — the schedule that kills a worker is the same schedule
// that fails softly during triage.
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <thread>

#include "core/wire.hpp"
#include "suite/register_parts.hpp"
#include "suite/program.hpp"

namespace mtt::suite {
namespace {

using rt::Runtime;
using rt::SharedVar;
using rt::Thread;

// ---------------------------------------------------------------------------
// crash_deref: order violation with a lethal consequence.  The user thread
// assumes init published the pointer; when it reads first, it dereferences
// null.  With MTT_CRASH_DEREF_HARD set the dereference is real (SIGSEGV,
// killing the worker mid-run); otherwise it is reported via rt.fail().
// ---------------------------------------------------------------------------
class CrashDeref final : public Program {
 public:
  std::string name() const override { return "crash_deref"; }
  std::string description() const override {
    return "order violation: a consumer may dereference a pointer before "
           "the producer publishes it; real SIGSEGV under "
           "MTT_CRASH_DEREF_HARD, soft failure otherwise";
  }
  std::vector<BugInfo> bugs() const override {
    return {BugInfo{"crash_deref.use-before-init", BugKind::OrderViolation,
                    "no synchronization orders the publish before the use; "
                    "an early consumer dereferences null",
                    {"crash.publish", "crash.use"}}};
  }

  void reset() override {
    Program::reset();
    crashed_ = false;
  }

  void body(Runtime& rt) override {
    SharedVar<int> published(rt, "published", 0);
    int payload = 0;
    int* ptr = nullptr;
    Thread producer(rt, "producer", [&] {
      payload = 42;
      ptr = &payload;
      published.write(1, site("crash.publish", BugMark::Yes));
    });
    Thread consumer(rt, "consumer", [&] {
      int ready = published.read(site("crash.use", BugMark::Yes));
      if (ready == 0) {
        crashed_ = true;
        if (std::getenv("MTT_CRASH_DEREF_HARD") != nullptr) {
          // Real consequence: the unpublished pointer is dereferenced (ptr
          // itself may already point at payload when the producer is
          // blocked at the publish site, since the scheduling point precedes
          // the write effect).  Its SIGSEGV is raised without a null store,
          // whose undefined behaviour a UBSan build may exit on first.
          std::raise(SIGSEGV);
        }
        rt.fail("null dereference: consumer ran before producer published "
                "(would segfault)");
      }
    });
    producer.join();
    consumer.join();
    setOutcome(crashed_ ? "deref-before-publish" : "ordered");
  }

  Verdict evaluate(const rt::RunResult& r) const override {
    return !r.ok() || crashed_ ? Verdict::BugManifested : Verdict::Pass;
  }

 private:
  bool crashed_ = false;
};

// ---------------------------------------------------------------------------
// wall_stall: order violation with a wall-clock hang.  When the consumer
// observes the un-set flag it stalls the worker for MTT_STALL_MS real
// milliseconds (default 2000) — longer than the farm watchdog plus its
// ~500 ms SIGTERM drain in the postmortem tests, short enough that a run
// without a watchdog finishes in seconds.  With MTT_STALL_MS=0
// the stall is skipped and the run fails softly and instantly, which is
// what replay/shrink of the resulting postmortem scenario uses.
// ---------------------------------------------------------------------------
class WallStall final : public Program {
 public:
  std::string name() const override { return "wall_stall"; }
  std::string description() const override {
    return "order violation that real-sleeps the worker when it manifests "
           "(MTT_STALL_MS, default 2000); exercises watchdog timeouts and "
           "the pre-kill postmortem drain";
  }
  std::vector<BugInfo> bugs() const override {
    return {BugInfo{"wall_stall.missed-go", BugKind::OrderViolation,
                    "the consumer busy-stalls in real time when it runs "
                    "before the producer sets go",
                    {"stall.set", "stall.check"}}};
  }

  void reset() override {
    Program::reset();
    stalled_ = false;
  }

  void body(Runtime& rt) override {
    SharedVar<int> go(rt, "go", 0);
    Thread producer(rt, "producer", [&] {
      go.write(1, site("stall.set", BugMark::Yes));
    });
    Thread consumer(rt, "consumer", [&] {
      int g = go.read(site("stall.check", BugMark::Yes));
      if (g == 0) {
        stalled_ = true;
        std::uint64_t ms = 2000;
        const char* env = std::getenv("MTT_STALL_MS");
        if (env != nullptr && !wire::parseU64(env, ms)) ms = 0;
        if (ms > 0) {
          // Real wall-clock stall, opaque to the virtual-time scheduler:
          // the run hangs until the farm watchdog kills the worker.
          std::this_thread::sleep_for(std::chrono::milliseconds(ms));
        }
        rt.fail("consumer observed go=0: producer had not run yet");
      }
    });
    producer.join();
    consumer.join();
    setOutcome(stalled_ ? "stalled" : "ordered");
  }

  Verdict evaluate(const rt::RunResult& r) const override {
    return !r.ok() || stalled_ ? Verdict::BugManifested : Verdict::Pass;
  }

 private:
  bool stalled_ = false;
};

}  // namespace

void registerCrashPrograms() {
  auto& reg = ProgramRegistry::instance();
  reg.add("crash_deref", [] { return std::make_unique<CrashDeref>(); });
  reg.add("wall_stall", [] { return std::make_unique<WallStall>(); });
}

}  // namespace mtt::suite
