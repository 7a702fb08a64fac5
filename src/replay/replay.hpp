// Replay — Section 2.2 of the paper:
//
//   "Replay has two phases: record and playback.  [...]  Partial replay,
//    which causes the program to behave as if the scheduler is deterministic
//    and repeats the previous test, is much easier and, in many cases, good
//    enough.  Partial replay algorithms can be compared on the likelihood of
//    performing replay and on their performance."
//
// Two replay mechanisms, matching the two runtimes:
//
//  * Controlled (exact) replay — a run is fully determined by its schedule
//    (the decision sequence of the controlled scheduler).  Record with
//    rt::RecordingPolicy, play back with rt::ReplayPolicy; this module adds
//    schedule persistence (save/load) so scenarios are artifacts, as the
//    benchmark requires.
//
//  * Native (partial) replay — record the global order of synchronization
//    and variable-access operations (SyncOrderRecorder, a Listener); on
//    playback, a SyncOrderEnforcer (a PreOpGate) blocks each thread until
//    its operation is next in the recorded order.  If the program takes a
//    different path (a race resolved differently before the enforcer could
//    constrain it) the enforcer times out, flags divergence and releases all
//    threads — replay "fails", which is precisely the probability
//    experiment E4 measures.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/event.hpp"
#include "core/listener.hpp"
#include "rt/native_runtime.hpp"
#include "rt/policy.hpp"

namespace mtt::replay {

// --- controlled-mode scenario persistence ----------------------------------

/// A saved scenario: the recorded schedule plus the metadata needed to
/// re-execute it "with the push of a button" — which program was run, which
/// seed, and which tool stack (policy/noise) shaped the recorded run.
/// Version-2/3 scenario files carry this header; version-1 files are the
/// bare schedule (program empty, tool fields defaulted).  Version 3 adds
/// tagged decisions: a decision line is either a bare thread id (ThreadPick)
/// or "s <idx>" (StorePick, the observable-store index a weak-memory load
/// observed).  Writers emit version 2 whenever the schedule is thread-picks
/// only, so pre-weak-memory recordings stay byte-identical.
struct Scenario {
  std::string program;           ///< suite program name ("" for v1 files)
  std::uint64_t seed = 0;        ///< run seed (noise makers derive from it)
  std::string policy = "random"; ///< policy that recorded it (informational)
  std::string noise = "none";    ///< noise heuristic active while recording
  double strength = 0.25;        ///< noise strength while recording
  rt::Schedule schedule;
};

/// Upper bounds rejected by the loader before any allocation happens, so a
/// corrupt header can neither exhaust memory nor fabricate thread ids.
inline constexpr std::size_t kMaxScenarioDecisions = 16u << 20;

/// Upper bound on a StorePick index in a scenario file; the runtime's
/// observable sets are far smaller (store history is capped), so anything
/// larger is corruption.
inline constexpr std::uint32_t kMaxScenarioStoreIndex = 255;

/// The MTTSCHED text of a scenario: version 2 when the schedule contains
/// only thread picks (byte-identical to the historical format), version 3
/// otherwise.  saveScenario writes it atomically, creating parent
/// directories as needed.
std::string encodeScenario(const Scenario& s);
void saveScenario(const Scenario& s, const std::string& path);

/// Parses a version-1, -2, or -3 scenario (core/wire.hpp tokens: only text
/// up to the last '\n' counts, so a torn trailer is a missing trailer).
/// Hardened: a truncated or corrupt text (bad magic, unsupported version,
/// malformed header, a number that is not a whole decimal token, invalid
/// thread id or store index, missing trailer) throws std::runtime_error
/// with a diagnostic naming `path` and the defect — never UB and never a
/// silently empty schedule.  Bytes after the trailer (postmortem
/// annotations) are ignored.  loadScenario also throws on a missing file.
Scenario decodeScenario(std::string_view text, const std::string& path);
Scenario loadScenario(const std::string& path);

/// Legacy helpers: bare-schedule persistence (version-1 file format for
/// thread-pick-only schedules; a headerless version-3 file otherwise).
/// loadSchedule accepts every version and discards the header.
void saveSchedule(const rt::Schedule& s, const std::string& path);
rt::Schedule loadSchedule(const std::string& path);

// --- native-mode partial replay ----------------------------------------------

/// Normalizes an event kind to its operation class (try-lock outcomes
/// collapse onto MutexTryLockOk; everything else maps to itself).
EventKind opClass(EventKind k);

/// True for the operation classes that are gated/recorded (pre-op events;
/// completion events like CondWaitEnd or BarrierExit are not enforceable).
bool isGatedClass(EventKind k);

/// True for the op classes that are recorded at *completion* time (their
/// emit event) rather than arrival: blocking acquisitions, whose winner is
/// decided only when they complete.  Recording them at completion makes the
/// order causally consistent, so the enforcer can release each acquisition
/// only after everything it depended on has happened — the acquirer then
/// wins deterministically.  All other gated ops are recorded at arrival.
bool isCompletionRecorded(EventKind k);

/// What a partial-replay algorithm records/enforces.  Full order includes
/// every gated operation (variable accesses too): near-exact replay at a
/// higher recording cost.  SyncOnly records just the synchronization
/// skeleton (the classic cheap partial replay): racy variable accesses can
/// still interleave differently, so replay may fail to reproduce the
/// outcome — the likelihood-vs-overhead tradeoff of experiment E4.
enum class OrderScope : std::uint8_t { Full, SyncOnly };

/// True when `k` is enforced under the scope.
bool inScope(EventKind k, OrderScope scope);

/// One entry of the recorded synchronization order.
struct SyncOp {
  ThreadId thread = kNoThread;
  EventKind kind = EventKind::Yield;
  ObjectId object = kNoObject;
  bool operator==(const SyncOp& o) const {
    return thread == o.thread && kind == o.kind && object == o.object;
  }
};

/// The record phase.  Non-blocking operations are recorded at arrival (as a
/// PreOpGate), blocking acquisitions at completion (as a Listener) — see
/// isCompletionRecorded.  Register it BOTH ways:
///   rt.setPreOpGate(&rec);  rt.hooks().add(&rec);
class SyncOrderRecorder final : public rt::PreOpGate, public Listener {
 public:
  explicit SyncOrderRecorder(OrderScope scope = OrderScope::Full)
      : scope_(scope) {}
  void beforeOp(ThreadId t, EventKind kind, ObjectId obj) override;
  void onEvent(const Event& e) override;
  /// Clears the recording (call between runs).
  void reset();

  /// The listener half only consumes completion-recorded acquisitions
  /// (arrival-recorded ops come through the PreOpGate, not the hook chain).
  EventMask subscribedEvents() const override {
    return EventMask{EventKind::MutexLock,      EventKind::MutexTryLockOk,
                     EventKind::MutexTryLockFail, EventKind::SemAcquire,
                     EventKind::RwLockRead,     EventKind::RwLockWrite,
                     EventKind::ThreadJoin};
  }
  std::string_view listenerName() const override { return "sync-recorder"; }
  void resetTool() override { reset(); }

  std::vector<SyncOp> order() const;
  std::vector<SyncOp> takeOrder() { return std::move(order_); }

 private:
  OrderScope scope_;
  std::vector<SyncOp> order_;
  mutable std::mutex mu_;
};

/// Projects a full recording onto a scope (e.g. derive the sync-only
/// skeleton from a full recording without re-running).
std::vector<SyncOp> projectOrder(const std::vector<SyncOp>& order,
                                 OrderScope scope);

/// The playback phase: a PreOpGate blocking each thread until its operation
/// heads the recorded order.  On timeout (the recorded head never arrives —
/// the run diverged) the gate deactivates and the run free-runs to
/// completion.
///
/// Race-window handling: passing the gate and *performing* the operation
/// are not atomic, so the next thread in the order could otherwise win a
/// contended mutex first and wedge the recorded order.  The enforcer is
/// therefore also a Listener: register it with the runtime's hooks, and it
/// holds the next gate until the in-flight operation's completion event
/// arrives.  A short grace period (default 2ms) releases the hold for
/// operations that genuinely block (a recorded lock acquisition that must
/// wait for a later unlock), which keeps the gate deadlock-free.  Without
/// the hook registration the enforcer still works, paying the grace period
/// on every operation.
class SyncOrderEnforcer final : public rt::PreOpGate, public Listener {
 public:
  explicit SyncOrderEnforcer(
      std::vector<SyncOp> order,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(200),
      OrderScope scope = OrderScope::Full,
      std::chrono::milliseconds grace = std::chrono::milliseconds(2));

  void beforeOp(ThreadId t, EventKind kind, ObjectId obj) override;
  void onEvent(const Event& e) override;

  /// Call between runs when reusing the enforcer.
  void reset();

  /// Completion matching needs every in-scope event (the in-flight op can
  /// be of any gated class); scope is fixed at construction, so the mask is
  /// stable as HookChain::add requires.
  EventMask subscribedEvents() const override {
    return scope_ == OrderScope::Full
               ? EventMask::all()
               : EventMask::all()
                     .without(EventKind::VarRead)
                     .without(EventKind::VarWrite);
  }
  std::string_view listenerName() const override { return "sync-enforcer"; }
  void resetTool() override { reset(); }

  bool diverged() const;
  /// All recorded operations were enforced in order.
  bool completed() const;
  /// Index reached in the recorded order.
  std::size_t progress() const;
  double progressRatio() const;

 private:
  std::vector<SyncOp> order_;
  std::chrono::milliseconds timeout_;
  OrderScope scope_;
  std::chrono::milliseconds grace_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::size_t idx_ = 0;
  bool diverged_ = false;
  // In-flight operation: the last one whose gate was passed but whose
  // completion event has not been seen yet.
  bool inFlight_ = false;
  SyncOp inFlightOp_{};
  std::chrono::steady_clock::time_point inFlightDeadline_{};
};

}  // namespace mtt::replay
