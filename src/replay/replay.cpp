#include "replay/replay.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/atomic_file.hpp"
#include "core/wire.hpp"

namespace mtt::replay {

namespace {

[[noreturn]] void badScenario(const std::string& path, const std::string& why) {
  throw std::runtime_error("bad scenario file " + path + ": " + why);
}

std::vector<rt::Decision> readDecisions(wire::Tokens& in,
                                        const std::string& path,
                                        std::uint64_t n, int version) {
  if (n > kMaxScenarioDecisions) {
    badScenario(path, "implausible decision count " + std::to_string(n));
  }
  std::vector<rt::Decision> out;
  // Each decision is at least two bytes ("1\n"): a corrupt count reserves
  // no more than the file could hold.
  out.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
      n, in.bytesLeft() / 2)));
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string_view tok;
    if (!in.next(tok)) {
      badScenario(path, "truncated decision list (" + std::to_string(i) +
                            " of " + std::to_string(n) + " decisions)");
    }
    if (tok == "s") {
      // Store-observation pick — a version-3 decision line.
      if (version < 3) {
        badScenario(path, "store pick at decision " + std::to_string(i) +
                              " in a version-" + std::to_string(version) +
                              " file");
      }
      std::uint64_t idx = 0;
      if (!in.next(tok) || !wire::parseU64(tok, idx)) {
        badScenario(path,
                    "malformed store index at decision " + std::to_string(i));
      }
      if (idx > kMaxScenarioStoreIndex) {
        badScenario(path, "implausible store index " + std::to_string(idx) +
                              " at decision " + std::to_string(i));
      }
      out.push_back(rt::Decision::store(static_cast<std::uint32_t>(idx)));
      continue;
    }
    std::uint64_t t = 0;
    if (!wire::parseU64(tok, t)) {
      badScenario(path, "malformed decision '" + std::string(tok) +
                            "' at decision " + std::to_string(i));
    }
    if (t == kNoThread || t > kMaxThreads) {
      badScenario(path, "invalid thread id " + std::to_string(t) +
                            " at decision " + std::to_string(i));
    }
    out.push_back(rt::Decision::thread(static_cast<ThreadId>(t)));
  }
  return out;
}

void appendDecisionLines(std::string& out, const rt::Schedule& s) {
  for (const rt::Decision& d : s.decisions) {
    if (d.isStore()) out += "s ";
    out += std::to_string(d.value);
    out += '\n';
  }
}

}  // namespace

std::string encodeScenario(const Scenario& s) {
  // Thread-pick-only schedules keep the historical version-2 encoding
  // byte-for-byte; only schedules with store picks need version 3.
  std::string out = s.schedule.threadPicksOnly() ? "MTTSCHED 2\n"
                                                 : "MTTSCHED 3\n";
  out += "program " + s.program + "\nseed " + std::to_string(s.seed) +
         "\npolicy " + s.policy + "\nnoise " + s.noise + "\nstrength " +
         wire::formatDouble(s.strength) + "\ndecisions " +
         std::to_string(s.schedule.decisions.size()) + "\n";
  appendDecisionLines(out, s.schedule);
  out += "end\n";
  return out;
}

Scenario decodeScenario(std::string_view text, const std::string& path) {
  // Tokens of the committed text only: a token (or the trailer) that the
  // writer never finished with its '\n' is not read, so every strict
  // prefix of a scenario is rejected.
  wire::Tokens in(text);
  std::string_view tok;
  if (!in.next(tok) || tok != "MTTSCHED") {
    badScenario(path, "not a scenario/schedule file (bad magic)");
  }
  std::uint64_t version = 0;
  if (!in.next(tok) || !wire::parseU64(tok, version)) {
    badScenario(path, "missing format version");
  }
  Scenario s;
  std::uint64_t n = 0;
  if (version == 1) {
    if (!in.next(tok) || !wire::parseU64(tok, n)) {
      badScenario(path, "missing decision count");
    }
    s.schedule.decisions = readDecisions(in, path, n, 1);
    return s;
  }
  if (version != 2 && version != 3) {
    badScenario(path, "unsupported version " + std::to_string(version));
  }
  // v2/v3 header: "key value" lines until the decisions count, then the
  // decision list, then the "end" trailer that catches truncation.
  for (bool haveCount = false; !haveCount;) {
    std::string_view key, value;
    if (!in.next(key)) badScenario(path, "truncated header");
    if (!in.next(value)) {
      badScenario(path, "truncated '" + std::string(key) + "' field");
    }
    bool ok = true;
    if (key == "program") {
      s.program = value;
    } else if (key == "seed") {
      ok = wire::parseU64(value, s.seed);
    } else if (key == "policy") {
      s.policy = value;
    } else if (key == "noise") {
      s.noise = value;
    } else if (key == "strength") {
      ok = wire::parseDouble(value, s.strength);
    } else if (key == "decisions") {
      ok = wire::parseU64(value, n);
      haveCount = true;
    } else {
      badScenario(path, "unknown header key '" + std::string(key) + "'");
    }
    if (!ok) {
      badScenario(path, haveCount ? std::string("malformed decision count")
                                  : "malformed '" + std::string(key) +
                                        "' field");
    }
  }
  s.schedule.decisions = readDecisions(in, path, n, static_cast<int>(version));
  if (!in.next(tok) || tok != "end") {
    badScenario(path, "missing 'end' trailer (file truncated?)");
  }
  return s;
}

void saveScenario(const Scenario& s, const std::string& path) {
  // Atomic write-then-rename: a crash mid-save leaves the previous witness
  // (or nothing), never a torn scenario that later fails to load.
  core::atomicWriteFile(path, encodeScenario(s));
}

Scenario loadScenario(const std::string& path) {
  std::string text;
  if (!core::readFile(path, text)) {
    throw std::runtime_error("cannot open scenario file " + path);
  }
  return decodeScenario(text, path);
}

void saveSchedule(const rt::Schedule& s, const std::string& path) {
  std::string out;
  if (s.threadPicksOnly()) {
    // Historical bare-schedule format, byte-identical.
    out = "MTTSCHED 1\n" + std::to_string(s.decisions.size()) + "\n";
    appendDecisionLines(out, s);
  } else {
    // Headerless version 3: the loader's header loop accepts zero keys.
    out = "MTTSCHED 3\ndecisions " + std::to_string(s.decisions.size()) +
          "\n";
    appendDecisionLines(out, s);
    out += "end\n";
  }
  core::atomicWriteFile(path, out);
}

rt::Schedule loadSchedule(const std::string& path) {
  return loadScenario(path).schedule;
}

EventKind opClass(EventKind k) {
  switch (k) {
    case EventKind::MutexTryLockFail:
      return EventKind::MutexTryLockOk;
    default:
      return k;
  }
}

bool isGatedClass(EventKind k) {
  switch (opClass(k)) {
    case EventKind::MutexLock:
    case EventKind::MutexUnlock:
    case EventKind::MutexTryLockOk:
    case EventKind::CondWaitBegin:
    case EventKind::CondSignal:
    case EventKind::CondBroadcast:
    case EventKind::SemAcquire:
    case EventKind::SemRelease:
    case EventKind::BarrierEnter:
    case EventKind::RwLockRead:
    case EventKind::RwLockWrite:
    case EventKind::RwUnlockRead:
    case EventKind::RwUnlockWrite:
    case EventKind::VarRead:
    case EventKind::VarWrite:
    case EventKind::ThreadJoin:
    case EventKind::ThreadSpawn:
      return true;
    default:
      return false;
  }
}

bool inScope(EventKind k, OrderScope scope) {
  if (scope == OrderScope::Full) return true;
  return k != EventKind::VarRead && k != EventKind::VarWrite;
}

std::vector<SyncOp> projectOrder(const std::vector<SyncOp>& order,
                                 OrderScope scope) {
  std::vector<SyncOp> out;
  out.reserve(order.size());
  for (const SyncOp& op : order) {
    if (inScope(op.kind, scope)) out.push_back(op);
  }
  return out;
}

bool isCompletionRecorded(EventKind k) {
  switch (opClass(k)) {
    case EventKind::MutexLock:
    case EventKind::MutexTryLockOk:
    case EventKind::SemAcquire:
    case EventKind::RwLockRead:
    case EventKind::RwLockWrite:
    case EventKind::ThreadJoin:
      return true;
    default:
      return false;
  }
}

void SyncOrderRecorder::beforeOp(ThreadId t, EventKind kind, ObjectId obj) {
  if (!inScope(kind, scope_) || isCompletionRecorded(kind)) return;
  std::lock_guard<std::mutex> lk(mu_);
  order_.push_back(SyncOp{t, opClass(kind), obj});
}

void SyncOrderRecorder::onEvent(const Event& e) {
  if (!isGatedClass(e.kind) || !inScope(e.kind, scope_) ||
      !isCompletionRecorded(e.kind)) {
    return;
  }
  std::lock_guard<std::mutex> lk(mu_);
  order_.push_back(SyncOp{e.thread, opClass(e.kind), e.object});
}

void SyncOrderRecorder::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  order_.clear();
}

std::vector<SyncOp> SyncOrderRecorder::order() const {
  std::lock_guard<std::mutex> lk(mu_);
  return order_;
}

SyncOrderEnforcer::SyncOrderEnforcer(std::vector<SyncOp> order,
                                     std::chrono::milliseconds timeout,
                                     OrderScope scope,
                                     std::chrono::milliseconds grace)
    : order_(std::move(order)),
      timeout_(timeout),
      scope_(scope),
      grace_(grace) {}

void SyncOrderEnforcer::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  idx_ = 0;
  diverged_ = false;
  inFlight_ = false;
}

void SyncOrderEnforcer::onEvent(const Event& e) {
  if (!inScope(e.kind, scope_)) return;
  std::lock_guard<std::mutex> lk(mu_);
  if (inFlight_ && inFlightOp_.thread == e.thread &&
      inFlightOp_.kind == opClass(e.kind)) {
    inFlight_ = false;
    cv_.notify_all();
  }
}

bool SyncOrderEnforcer::diverged() const {
  std::lock_guard<std::mutex> lk(mu_);
  return diverged_;
}

bool SyncOrderEnforcer::completed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return !diverged_ && idx_ == order_.size();
}

std::size_t SyncOrderEnforcer::progress() const {
  std::lock_guard<std::mutex> lk(mu_);
  return idx_;
}

double SyncOrderEnforcer::progressRatio() const {
  std::lock_guard<std::mutex> lk(mu_);
  return order_.empty()
             ? 1.0
             : static_cast<double>(idx_) / static_cast<double>(order_.size());
}

void SyncOrderEnforcer::beforeOp(ThreadId t, EventKind kind, ObjectId obj) {
  if (!inScope(kind, scope_)) return;  // out-of-scope ops free-run
  SyncOp me{t, opClass(kind), obj};
  std::unique_lock<std::mutex> lk(mu_);
  auto divergeDeadline = std::chrono::steady_clock::now() + timeout_;
  for (;;) {
    if (diverged_) return;            // free-running after divergence
    if (idx_ >= order_.size()) return;  // recording exhausted: free-run tail
    bool myTurn = order_[idx_] == me;
    auto now = std::chrono::steady_clock::now();
    bool held = inFlight_ && now < inFlightDeadline_;
    if (myTurn && !held) {
      ++idx_;
      inFlight_ = true;
      inFlightOp_ = me;
      inFlightDeadline_ = now + grace_;
      cv_.notify_all();
      return;
    }
    if (myTurn) {
      // Waiting only for the in-flight predecessor: does not count toward
      // the divergence timeout.
      divergeDeadline = std::max(divergeDeadline, inFlightDeadline_ + timeout_);
      cv_.wait_until(lk, inFlightDeadline_);
      continue;
    }
    // An operation the recording never saw at this point (e.g. a different
    // try-lock path) can never be scheduled: divergence.
    auto wakeAt = divergeDeadline;
    if (inFlight_) wakeAt = std::min(wakeAt, inFlightDeadline_);
    if (cv_.wait_until(lk, wakeAt) == std::cv_status::timeout &&
        std::chrono::steady_clock::now() >= divergeDeadline &&
        !(idx_ < order_.size() && order_[idx_] == me)) {
      diverged_ = true;
      cv_.notify_all();
      return;
    }
  }
}

}  // namespace mtt::replay
