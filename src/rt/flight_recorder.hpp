// Postmortem flight recorder: async-signal-safe export of the in-progress
// schedule recording.
//
// A controlled run that segfaults, aborts, or is killed by the watchdog
// used to deliver nothing to triage — the schedule that produced the crash
// died with the worker.  The flight recorder closes that loop: while a run
// is in progress it mirrors every scheduling decision into a preallocated
// buffer, and a fatal-signal handler (or the SIGTERM drain the farm parent
// sends before SIGKILL) dumps the partial recording as a valid scenario
// file (v2, or v3 when the run recorded store-observation picks),
// annotated (after the "end" trailer, which the scenario loader
// ignores) with the signal, the last-N-events ring, and the held-lock set.
// The dumped file replays directly: `mtt replay` / `mtt shrink` accept it.
//
// Signal-safety rules (DESIGN.md "Durability & postmortem"):
//  * all buffers are preallocated; the handler never allocates,
//  * the scenario header is preformatted at beginRun (snprintf is not
//    async-signal-safe), the handler only formats integers,
//  * the dump uses open/write/close exclusively,
//  * decision count is published with release stores so a handler that
//    interrupts the recording thread reads a consistent prefix.
//
// The recorder is process-global with a single run slot (claim/release):
// it exists for the forked-worker model, where each worker process runs
// one run at a time.  In-process use (thread model) is unsupported —
// claim() simply fails for a second concurrent runtime and those runs are
// not recorded.
#pragma once

#include <cstdint>

#include "core/event.hpp"
#include "core/ids.hpp"

namespace mtt::rt::fr {

/// Campaign-side identity of the run, preformatted into the scenario
/// header.  Pointers must stay valid for the duration of the beginRun call
/// only (the text is copied).
struct RunMeta {
  const char* program = "";
  std::uint64_t seed = 0;
  const char* policy = "";
  const char* noise = "";
  double strength = 0.0;
};

/// Arms the recorder: partial recordings will be dumped to `dumpPath` on a
/// fatal signal or an explicit dumpNow.  Idempotent; not thread-safe
/// against concurrent runs (arm before the first run).
void arm(const char* dumpPath);
bool armed();
void disarm();

/// Installs SIGSEGV/SIGBUS/SIGFPE/SIGABRT handlers that dump the partial
/// recording and re-raise (the process still dies with the original
/// signal, so the farm parent observes the crash), plus a SIGTERM drain
/// handler that dumps and _exit(126)s — the parent watchdog sends SIGTERM
/// before SIGKILL to collect a witness from a hung run.  The handlers run
/// on an alternate signal stack installed for the calling thread, so a
/// managed thread that overflows its fiber stack into the guard page still
/// dumps.  POSIX only; a no-op elsewhere.
void installCrashHandlers();

/// Marks a run in progress and preformats its scenario header.  Resets the
/// decision buffer, event ring, and held-lock table.
void beginRun(const RunMeta& meta);
/// Marks the run finished: later signals dump nothing (a run that ended
/// cleanly needs no postmortem).
void endRun();

/// Binds the single recording slot to `runtime`; false when the recorder
/// is disarmed or another runtime holds the slot.
bool claim(const void* runtime);
void release(const void* runtime);
bool isOwner(const void* runtime);

/// Mirrors one committed scheduling decision (the post-correction pick, so
/// the dump matches what a RecordingPolicy would have recorded).
void recordDecision(const void* runtime, ThreadId chosen);
/// Mirrors one committed store-observation pick (weak-memory runs).  A
/// dump containing at least one store pick is written as a v3 scenario
/// ("s <idx>" decision lines); otherwise the dump stays byte-identical to
/// the historical v2 format.
void recordStorePick(const void* runtime, std::uint32_t age);
/// Feeds the last-N-events diagnostic ring.
void recordEvent(const void* runtime, EventKind kind, ThreadId thread,
                 ObjectId object);
/// Held-lock set maintenance (callers hold the scheduler lock).
void lockAcquired(const void* runtime, ObjectId object, ThreadId holder);
void lockReleased(const void* runtime, ObjectId object);

/// Dumps the current partial recording to the armed path.  Async-signal-
/// safe.  Returns 0 on success, -1 when disarmed, no run is active, or the
/// write failed.  `signo` (0 for an explicit drain) lands in the
/// postmortem annotations.
int dumpNow(int signo);

/// Capacity of the decision buffer; recordings past it set the
/// "truncated" annotation instead of growing.
inline constexpr std::uint32_t kMaxDecisions = 1u << 20;
/// Size of the last-events diagnostic ring.
inline constexpr std::uint32_t kEventRing = 64;
/// Capacity of the held-lock table.
inline constexpr std::uint32_t kMaxHeldLocks = 256;

}  // namespace mtt::rt::fr
