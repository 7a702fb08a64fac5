// Annotated execution traces — benchmark component 1 of the paper:
//
//   "Sample traces of executions using the standard format for race
//    detection and replay.  Each record in the traces contain information
//    about the location in the program from which it was called, what was
//    instrumented, which variable was touched, thread name, if it is a read
//    or write, and if this location is involved in a bug."
//
// A Trace is a run header (program, seed, mode), three symbol tables
// (threads, objects, sites) and the event sequence.  Offline tools (race
// detection, potential-deadlock analysis, coverage) consume traces through
// the same Event type online tools consume, so "race detection algorithms
// may be evaluated using the traces without any work on the programs
// themselves" (Section 4).
#pragma once

#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/event.hpp"
#include "core/listener.hpp"
#include "rt/runtime.hpp"

namespace mtt::trace {

/// Symbol-table entry for one instrumented object.
struct ObjectSym {
  rt::ObjectKind kind = rt::ObjectKind::Variable;
  std::string name;
};

/// Symbol-table entry for one instrumentation site.
struct SiteSym {
  std::string tag;
  std::string file;
  std::uint32_t line = 0;
  bool bug = false;
};

/// One recorded run.
struct Trace {
  std::string programName;
  std::uint64_t seed = 0;
  RuntimeMode mode = RuntimeMode::Native;
  std::map<ThreadId, std::string> threads;
  std::map<ObjectId, ObjectSym> objects;
  std::map<SiteId, SiteSym> sites;
  std::vector<Event> events;

  std::string threadName(ThreadId t) const;
  std::string objectName(ObjectId o) const;
  const SiteSym* siteInfo(SiteId s) const;

  /// Shared variables: object ids of kind Variable accessed by >= 2 threads.
  std::vector<ObjectId> sharedVariables() const;
  /// Number of events of a given kind.
  std::size_t countKind(EventKind k) const;
};

/// Serializes a trace in the line-based text format (see trace.cpp for the
/// grammar).  Throws std::runtime_error on I/O failure.
void writeText(const Trace& t, std::ostream& os);
void writeTextFile(const Trace& t, const std::string& path);

/// Parses the text format, built on core/wire.hpp: only '\n'-terminated
/// lines count, numbers are strict decimals ("seed 12abc" is rejected),
/// flags are 0 or 1, the 'events' count must match the records, and
/// everything after the 'end' line is ignored.  Any defect throws one
/// std::runtime_error starting "text trace: line N: ".
Trace decodeText(std::string_view text);
Trace readText(std::istream& is);
Trace readTextFile(const std::string& path);

/// Compact binary serialization (magic "MTTB"), for high-volume trace
/// repositories; semantically identical to the text format.  The writer
/// emits format version 2: events are varint-encoded (LEB128) with
/// zigzag-delta sequence numbers and a packed kind/bug byte, so a typical
/// event costs a few bytes instead of 36.  The reader also accepts the
/// fixed-width version-1 layout of earlier builds.  Both are built on
/// core/wire.hpp: the reader takes the whole stream once and decodes from
/// the buffer, checking every length and count against the bytes left, and
/// any defect (truncation, trailing bytes, unknown kind) throws one
/// std::runtime_error starting "binary trace: ".
std::string encodeBinary(const Trace& t);
Trace decodeBinary(std::string_view bytes);
void writeBinary(const Trace& t, std::ostream& os);
void writeBinaryFile(const Trace& t, const std::string& path);
Trace readBinary(std::istream& is);
Trace readBinaryFile(const std::string& path);

/// On-disk flavor of a trace, reported by the auto-detecting readers.
enum class TraceFormat : std::uint8_t { Text, Binary };

/// Reads a trace in either format, auto-detected from the magic bytes
/// ("MTTTRACE" text header vs "MTTB" binary header) — callers never branch
/// on file extensions.  Throws std::runtime_error on malformed input.
Trace read(std::istream& is);
Trace readFile(const std::string& path);

/// The uniform offline-consumption surface: loads a trace from either
/// format and replays it through listeners.  Binary and text recordings of
/// the same run are indistinguishable through this class.
class TraceReader {
 public:
  explicit TraceReader(const std::string& path);
  explicit TraceReader(std::istream& is);

  TraceFormat format() const { return format_; }
  const Trace& trace() const { return trace_; }
  Trace take() { return std::move(trace_); }

  /// Replays the trace's events through the listener (onRunStart /
  /// onEvent* / onRunEnd), same as trace::feed.
  void feed(Listener& listener) const;

 private:
  Trace trace_;
  TraceFormat format_ = TraceFormat::Text;
};

/// A listener that records a run into a Trace, resolving thread/object/site
/// names through the runtime and the global SiteRegistry at run end.
class TraceRecorder final : public Listener {
 public:
  /// The runtime is used to resolve symbol names; it must outlive the
  /// recorder's runs.
  explicit TraceRecorder(rt::Runtime& rt) : rt_(&rt) {}

  /// Runtime-less construction for owned tool stacks; bindRuntime attaches
  /// the symbol source before each run.
  TraceRecorder() = default;

  void onRunStart(const RunInfo& info) override;
  void onEvent(const Event& e) override;
  void onRunEnd() override;

  std::string_view listenerName() const override { return "trace-recorder"; }
  void bindRuntime(rt::Runtime& rt) override { rt_ = &rt; }
  void resetTool() override;

  /// The completed trace of the most recent run (valid after onRunEnd).
  const Trace& trace() const { return trace_; }
  Trace takeTrace() { return std::move(trace_); }

 private:
  rt::Runtime* rt_ = nullptr;
  Trace trace_;
  mutable std::mutex mu_;  // native mode: events arrive concurrently
};

/// Replays a trace's events through a chain of listeners — the offline
/// evaluation path: detectors run identically on live runs and stored
/// traces.
void feed(const Trace& t, std::initializer_list<Listener*> listeners);
void feed(const Trace& t, Listener& listener);

}  // namespace mtt::trace
