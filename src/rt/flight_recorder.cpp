#include "rt/flight_recorder.hpp"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>
#define MTT_FR_POSIX 1
#else
#define MTT_FR_POSIX 0
#endif

namespace mtt::rt::fr {

namespace {

// All state is preallocated and process-global: the handler must never
// touch the allocator.  Sized for one run at a time (the forked-worker
// model), guarded by the owner slot.
struct EventEntry {
  std::uint8_t kind = 0;
  ThreadId thread = kNoThread;
  ObjectId object = kNoObject;
};

struct HeldLock {
  ObjectId object = kNoObject;
  ThreadId holder = kNoThread;
  bool active = false;
};

char g_path[1024];
char g_header[4096];
std::atomic<bool> g_armed{false};
std::atomic<bool> g_runActive{false};
std::atomic<const void*> g_owner{nullptr};

// A decision slot holds either a thread pick (the chosen ThreadId) or a
// store-observation pick (the observable-set index).  The kind lives in a
// parallel byte array so the hot thread-pick path keeps its single-word
// store; g_storePicks lets the dump pick the v2 magic (byte-identical to
// the pre-weak-memory format) when no store picks were recorded.
ThreadId g_decisions[kMaxDecisions];
std::uint8_t g_decisionIsStore[kMaxDecisions];
std::atomic<std::uint32_t> g_decisionCount{0};
std::atomic<std::uint32_t> g_storePicks{0};
std::atomic<bool> g_truncated{false};

EventEntry g_events[kEventRing];
std::atomic<std::uint64_t> g_eventTotal{0};

HeldLock g_locks[kMaxHeldLocks];

// --- async-signal-safe output ---------------------------------------------

/// Tiny buffered writer over write(2); everything it calls is on the
/// POSIX async-signal-safe list.
struct Writer {
  int fd = -1;
  char buf[4096];
  std::size_t n = 0;
  bool failed = false;

  void flush() {
#if MTT_FR_POSIX
    std::size_t off = 0;
    while (off < n) {
      ssize_t w = ::write(fd, buf + off, n - off);
      if (w < 0) {
        if (errno == EINTR) continue;
        failed = true;
        break;
      }
      off += static_cast<std::size_t>(w);
    }
#endif
    n = 0;
  }

  void put(const char* s, std::size_t len) {
    for (std::size_t i = 0; i < len; ++i) {
      if (n == sizeof buf) flush();
      buf[n++] = s[i];
    }
  }
  void put(const char* s) { put(s, std::strlen(s)); }
  void putU64(std::uint64_t v) {
    char tmp[24];
    std::size_t i = sizeof tmp;
    do {
      tmp[--i] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    put(tmp + i, sizeof tmp - i);
  }
};

void formatHeader(const RunMeta& meta) {
  // snprintf is NOT async-signal-safe, which is exactly why the header is
  // preformatted here, outside any handler.
  // The magic line is written by dumpNow: the version depends on whether
  // the run recorded store picks, which is unknown at beginRun time.
  std::snprintf(g_header, sizeof g_header,
                "program %s\n"
                "seed %llu\n"
                "policy %s\n"
                "noise %s\n"
                "strength %.17g\n",
                meta.program, static_cast<unsigned long long>(meta.seed),
                meta.policy, meta.noise, meta.strength);
}

}  // namespace

void arm(const char* dumpPath) {
  std::snprintf(g_path, sizeof g_path, "%s", dumpPath);
  g_runActive.store(false, std::memory_order_relaxed);
  g_owner.store(nullptr, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_release);
}

bool armed() { return g_armed.load(std::memory_order_acquire); }

void disarm() {
  g_armed.store(false, std::memory_order_release);
  g_runActive.store(false, std::memory_order_relaxed);
  g_owner.store(nullptr, std::memory_order_relaxed);
}

void beginRun(const RunMeta& meta) {
  if (!armed()) return;
  formatHeader(meta);
  g_decisionCount.store(0, std::memory_order_relaxed);
  g_storePicks.store(0, std::memory_order_relaxed);
  g_truncated.store(false, std::memory_order_relaxed);
  g_eventTotal.store(0, std::memory_order_relaxed);
  for (HeldLock& l : g_locks) l.active = false;
  g_runActive.store(true, std::memory_order_release);
}

void endRun() { g_runActive.store(false, std::memory_order_release); }

bool claim(const void* runtime) {
  if (!armed()) return false;
  const void* expected = nullptr;
  return g_owner.compare_exchange_strong(expected,
                                         runtime,
                                         std::memory_order_acq_rel) ||
         expected == runtime;
}

void release(const void* runtime) {
  const void* expected = runtime;
  g_owner.compare_exchange_strong(expected, nullptr,
                                  std::memory_order_acq_rel);
}

bool isOwner(const void* runtime) {
  return runtime != nullptr &&
         g_owner.load(std::memory_order_acquire) == runtime;
}

void recordDecision(const void* runtime, ThreadId chosen) {
  if (!isOwner(runtime)) return;
  std::uint32_t n = g_decisionCount.load(std::memory_order_relaxed);
  if (n >= kMaxDecisions) {
    g_truncated.store(true, std::memory_order_relaxed);
    return;
  }
  g_decisions[n] = chosen;
  g_decisionIsStore[n] = 0;
  // Publish after the slot is written: a handler interrupting here sees a
  // consistent prefix.
  g_decisionCount.store(n + 1, std::memory_order_release);
}

void recordStorePick(const void* runtime, std::uint32_t age) {
  if (!isOwner(runtime)) return;
  std::uint32_t n = g_decisionCount.load(std::memory_order_relaxed);
  if (n >= kMaxDecisions) {
    g_truncated.store(true, std::memory_order_relaxed);
    return;
  }
  g_decisions[n] = age;
  g_decisionIsStore[n] = 1;
  g_storePicks.store(g_storePicks.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
  g_decisionCount.store(n + 1, std::memory_order_release);
}

void recordEvent(const void* runtime, EventKind kind, ThreadId thread,
                 ObjectId object) {
  if (!isOwner(runtime)) return;
  std::uint64_t n = g_eventTotal.load(std::memory_order_relaxed);
  EventEntry& e = g_events[n % kEventRing];
  e.kind = static_cast<std::uint8_t>(kind);
  e.thread = thread;
  e.object = object;
  g_eventTotal.store(n + 1, std::memory_order_release);
}

void lockAcquired(const void* runtime, ObjectId object, ThreadId holder) {
  if (!isOwner(runtime)) return;
  for (HeldLock& l : g_locks) {
    if (!l.active) {
      l.object = object;
      l.holder = holder;
      l.active = true;
      return;
    }
  }
}

void lockReleased(const void* runtime, ObjectId object) {
  if (!isOwner(runtime)) return;
  for (HeldLock& l : g_locks) {
    if (l.active && l.object == object) {
      l.active = false;
      return;
    }
  }
}

int dumpNow(int signo) {
  if (!armed() || !g_runActive.load(std::memory_order_acquire)) return -1;
#if MTT_FR_POSIX
  int fd = ::open(g_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return -1;
  Writer w;
  w.fd = fd;

  // A valid scenario: magic, header, decision list, "end".  Runs without
  // store picks dump the historical v2 format byte-for-byte.
  std::uint32_t n = g_decisionCount.load(std::memory_order_acquire);
  bool v3 = g_storePicks.load(std::memory_order_relaxed) != 0;
  w.put(v3 ? "MTTSCHED 3\n" : "MTTSCHED 2\n");
  w.put(g_header);
  w.put("decisions ");
  w.putU64(n);
  w.put("\n");
  for (std::uint32_t i = 0; i < n; ++i) {
    if (g_decisionIsStore[i]) w.put("s ");
    w.putU64(g_decisions[i]);
    w.put("\n");
  }
  w.put("end\n");

  // Annotations past the trailer: loadScenario stops at "end", so the file
  // stays replayable while carrying the postmortem diagnostics.
  w.put("postmortem signal ");
  w.putU64(static_cast<std::uint64_t>(signo < 0 ? 0 : signo));
  w.put("\n");
  if (g_truncated.load(std::memory_order_relaxed)) w.put("truncated\n");
  for (const HeldLock& l : g_locks) {
    if (!l.active) continue;
    w.put("heldlock ");
    w.putU64(l.object);
    w.put(" ");
    w.putU64(l.holder);
    w.put("\n");
  }
  std::uint64_t total = g_eventTotal.load(std::memory_order_acquire);
  std::uint64_t first = total > kEventRing ? total - kEventRing : 0;
  for (std::uint64_t i = first; i < total; ++i) {
    const EventEntry& e = g_events[i % kEventRing];
    w.put("event ");
    w.put(to_string(static_cast<EventKind>(e.kind)).data(),
          to_string(static_cast<EventKind>(e.kind)).size());
    w.put(" ");
    w.putU64(e.thread);
    w.put(" ");
    w.putU64(e.object);
    w.put("\n");
  }
  w.put("endpostmortem\n");
  w.flush();
  ::close(fd);
  return w.failed ? -1 : 0;
#else
  (void)signo;
  return -1;
#endif
}

#if MTT_FR_POSIX
namespace {

void fatalHandler(int signo) {
  dumpNow(signo);
  // SA_RESETHAND restored the default disposition: re-raising terminates
  // the process with the original signal, so the farm parent still
  // observes the crash.
  ::raise(signo);
}

void drainHandler(int signo) {
  dumpNow(signo);
  ::_exit(126);
}

}  // namespace
#endif

void installCrashHandlers() {
#if MTT_FR_POSIX
  // The handlers run on an alternate signal stack: a managed thread's stack
  // is a small fiber stack, and a fault that overflowed it into its guard
  // page leaves no room there to dump.  Static storage keeps the handler
  // path allocation-free; it serves the calling thread, the one that runs
  // controlled runs in a forked worker.
  static char altStack[64 * 1024];
  stack_t ss;
  std::memset(&ss, 0, sizeof ss);
  ss.ss_sp = altStack;
  ss.ss_size = sizeof altStack;
  ::sigaltstack(&ss, nullptr);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sigemptyset(&sa.sa_mask);
  sa.sa_handler = fatalHandler;
  sa.sa_flags = SA_RESETHAND | SA_ONSTACK;
  for (int signo : {SIGSEGV, SIGBUS, SIGFPE, SIGABRT}) {
    ::sigaction(signo, &sa, nullptr);
  }
  sa.sa_handler = drainHandler;
  sa.sa_flags = SA_ONSTACK;
  ::sigaction(SIGTERM, &sa, nullptr);
#endif
}

}  // namespace mtt::rt::fr
