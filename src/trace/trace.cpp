// Text grammar (line-based, '#' starts a comment):
//
//   MTTTRACE 1
//   program <rest-of-line>
//   seed <u64>
//   mode native|controlled
//   thread <id> <rest-of-line: name>
//   object <id> <kind> <rest-of-line: name>
//   site <id> <bug:0|1> <line> <file> <rest-of-line: tag (may be empty)>
//   events <count>
//   e <seq> <tid> <kind-name> <obj> <site> <arg> <bug:0|1>
//   end
#include "trace/trace.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/atomic_file.hpp"
#include "core/wire.hpp"

namespace mtt::trace {

std::string Trace::threadName(ThreadId t) const {
  auto it = threads.find(t);
  return it == threads.end() ? "T" + std::to_string(t) : it->second;
}

std::string Trace::objectName(ObjectId o) const {
  auto it = objects.find(o);
  return it == objects.end() ? "obj" + std::to_string(o) : it->second.name;
}

const SiteSym* Trace::siteInfo(SiteId s) const {
  auto it = sites.find(s);
  return it == sites.end() ? nullptr : &it->second;
}

std::vector<ObjectId> Trace::sharedVariables() const {
  std::map<ObjectId, std::set<ThreadId>> touchers;
  for (const Event& e : events) {
    if (e.kind == EventKind::VarRead || e.kind == EventKind::VarWrite) {
      touchers[e.object].insert(e.thread);
    }
  }
  std::vector<ObjectId> out;
  for (const auto& [obj, ts] : touchers) {
    if (ts.size() >= 2) out.push_back(obj);
  }
  return out;
}

std::size_t Trace::countKind(EventKind k) const {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [&](const Event& e) { return e.kind == k; }));
}

// --- text serialization -----------------------------------------------------

namespace {

constexpr char kTextFormat[] = "text trace";

[[noreturn]] void parseError(const std::string& what, std::size_t lineNo) {
  throw std::runtime_error(std::string(kTextFormat) + ": line " +
                           std::to_string(lineNo) + ": " + what);
}

/// One line of the text format: single-space-separated fields, the last of
/// which may be a rest-of-line name (names may hold spaces and tabs).
class LineFields {
 public:
  LineFields(std::string_view line, std::size_t lineNo)
      : rest_(line), lineNo_(lineNo) {}

  /// The next field; an error when the line has none left.
  std::string_view field(const char* what) {
    if (done_) parseError(std::string("missing ") + what, lineNo_);
    const std::size_t sp = rest_.find(' ');
    std::string_view f = rest_.substr(0, sp);
    if (sp == std::string_view::npos) {
      rest_ = {};
      done_ = true;
    } else {
      rest_.remove_prefix(sp + 1);
    }
    return f;
  }
  std::uint64_t u64(const char* what) {
    std::uint64_t v = 0;
    if (!wire::parseU64(field(what), v)) bad(what);
    return v;
  }
  std::uint32_t u32(const char* what) {
    std::uint32_t v = 0;
    if (!wire::parseU32(field(what), v)) bad(what);
    return v;
  }
  bool flag(const char* what) {
    bool v = false;
    if (!wire::parseBool(field(what), v)) bad(what);
    return v;
  }
  /// The rest of the line as one name ("" when the line ended).
  std::string rest() {
    done_ = true;
    return std::string(std::exchange(rest_, {}));
  }
  /// The line must hold nothing more.
  void end() {
    if (!done_) parseError("trailing fields", lineNo_);
  }

 private:
  [[noreturn]] void bad(const char* what) {
    parseError(std::string("malformed ") + what, lineNo_);
  }

  std::string_view rest_;
  std::size_t lineNo_;
  bool done_ = false;
};

rt::ObjectKind objectKindFromName(std::string_view s, std::size_t lineNo) {
  for (rt::ObjectKind k :
       {rt::ObjectKind::Mutex, rt::ObjectKind::RwLock, rt::ObjectKind::CondVar,
        rt::ObjectKind::Semaphore, rt::ObjectKind::Barrier,
        rt::ObjectKind::Variable, rt::ObjectKind::Thread,
        rt::ObjectKind::TaskQueue, rt::ObjectKind::Atomic}) {
    if (rt::to_string(k) == s) return k;
  }
  parseError("unknown object kind '" + std::string(s) + "'", lineNo);
}

}  // namespace

void writeText(const Trace& t, std::ostream& os) {
  os << "MTTTRACE 1\n";
  os << "program " << t.programName << '\n';
  os << "seed " << t.seed << '\n';
  os << "mode "
     << (t.mode == RuntimeMode::Controlled ? "controlled" : "native") << '\n';
  for (const auto& [id, name] : t.threads) {
    os << "thread " << id << ' ' << name << '\n';
  }
  for (const auto& [id, sym] : t.objects) {
    os << "object " << id << ' ' << rt::to_string(sym.kind) << ' ' << sym.name
       << '\n';
  }
  for (const auto& [id, sym] : t.sites) {
    os << "site " << id << ' ' << (sym.bug ? 1 : 0) << ' ' << sym.line << ' '
       << (sym.file.empty() ? "-" : sym.file) << ' ' << sym.tag << '\n';
  }
  os << "events " << t.events.size() << '\n';
  for (const Event& e : t.events) {
    os << "e " << e.seq << ' ' << e.thread << ' ' << to_string(e.kind) << ' '
       << e.object << ' ' << e.syncSite << ' ' << e.arg << ' '
       << (e.bugSite == BugMark::Yes ? 1 : 0) << '\n';
  }
  os << "end\n";
  if (!os) throw std::runtime_error("trace write failed");
}

Trace decodeText(std::string_view text) {
  Trace t;
  // Only committed ('\n'-terminated) lines count: a cut file never reads as
  // a shorter whole one.
  const wire::Lines lines = wire::splitLines(text);
  std::size_t lineNo = 0;
  bool sawHeader = false;
  bool sawEnd = false;
  std::optional<std::uint64_t> eventCount;
  for (std::string_view line : lines.complete) {
    ++lineNo;
    if (line.empty() || line[0] == '#') continue;
    if (!sawHeader) {
      if (line != "MTTTRACE 1") parseError("missing MTTTRACE 1 header", lineNo);
      sawHeader = true;
      continue;
    }
    LineFields f(line, lineNo);
    const std::string_view kw = f.field("keyword");
    if (kw == "program") {
      t.programName = f.rest();
    } else if (kw == "seed") {
      t.seed = f.u64("seed");
    } else if (kw == "mode") {
      const std::string_view m = f.field("mode");
      if (m == "controlled") {
        t.mode = RuntimeMode::Controlled;
      } else if (m == "native") {
        t.mode = RuntimeMode::Native;
      } else {
        parseError("unknown mode '" + std::string(m) + "'", lineNo);
      }
    } else if (kw == "thread") {
      const ThreadId id = f.u32("thread id");
      t.threads[id] = f.rest();
    } else if (kw == "object") {
      const ObjectId id = f.u32("object id");
      const rt::ObjectKind kind = objectKindFromName(f.field("kind"), lineNo);
      t.objects[id] = ObjectSym{kind, f.rest()};
    } else if (kw == "site") {
      const SiteId id = f.u32("site id");
      SiteSym sym;
      sym.bug = f.flag("bug flag");
      sym.line = f.u32("line");
      const std::string_view file = f.field("file");
      if (file != "-") sym.file = std::string(file);
      sym.tag = f.rest();
      t.sites[id] = std::move(sym);
    } else if (kw == "events") {
      eventCount = f.u64("event count");
    } else if (kw == "e") {
      Event e;
      e.seq = f.u64("sequence number");
      e.thread = f.u32("thread");
      const std::string_view kind = f.field("event kind");
      if (!event_kind_from_string(kind, e.kind)) {
        parseError("unknown event kind '" + std::string(kind) + "'", lineNo);
      }
      e.object = f.u32("object");
      e.syncSite = f.u32("site");
      e.arg = f.u32("arg");
      e.bugSite = f.flag("bug flag") ? BugMark::Yes : BugMark::No;
      e.access = access_of(e.kind);
      t.events.push_back(e);
    } else if (kw == "end") {
      sawEnd = true;
    } else {
      parseError("unknown keyword '" + std::string(kw) + "'", lineNo);
    }
    f.end();
    if (sawEnd) break;
  }
  if (!sawHeader) parseError("missing MTTTRACE 1 header", lineNo);
  if (!sawEnd) parseError("missing 'end'", lineNo);
  if (eventCount && *eventCount != t.events.size()) {
    parseError("'events " + std::to_string(*eventCount) + "' but " +
                   std::to_string(t.events.size()) + " event records",
               lineNo);
  }
  return t;
}

Trace readText(std::istream& is) {
  return decodeText(std::string(std::istreambuf_iterator<char>(is), {}));
}

void writeTextFile(const Trace& t, const std::string& path) {
  std::ostringstream f;
  writeText(t, f);
  core::atomicWriteFile(path, f.str());
}

Trace readTextFile(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open " + path);
  return readText(f);
}

// --- binary serialization ---------------------------------------------------

namespace {

constexpr char kBinaryFormat[] = "binary trace";
constexpr std::uint8_t kBugFlag = 0x80;  // high bit of the v2 kind byte

EventKind checkedKind(wire::Reader& r, std::uint64_t k) {
  if (k >= static_cast<std::uint64_t>(EventKind::kCount)) {
    r.fail("unknown event kind " + std::to_string(k));
  }
  return static_cast<EventKind>(k);
}

rt::ObjectKind checkedObjectKind(wire::Reader& r, std::uint64_t k) {
  if (k > static_cast<std::uint64_t>(rt::ObjectKind::Atomic)) {
    r.fail("unknown object kind " + std::to_string(k));
  }
  return static_cast<rt::ObjectKind>(k);
}

// Version 1: fixed-width little-endian fields, u32-length strings.
Trace decodeV1(wire::Reader& r) {
  auto str = [&r] { return std::string(r.bytes(r.u32le())); };
  Trace t;
  t.programName = str();
  t.seed = r.u64le();
  t.mode = r.u32le() ? RuntimeMode::Controlled : RuntimeMode::Native;
  for (auto n = r.fits(r.u32le(), 8, "thread"); n > 0; --n) {
    ThreadId id = r.u32le();
    t.threads[id] = str();
  }
  for (auto n = r.fits(r.u32le(), 12, "object"); n > 0; --n) {
    ObjectId id = r.u32le();
    ObjectSym sym;
    sym.kind = checkedObjectKind(r, r.u32le());
    sym.name = str();
    t.objects[id] = std::move(sym);
  }
  for (auto n = r.fits(r.u32le(), 20, "site"); n > 0; --n) {
    SiteId id = r.u32le();
    SiteSym sym;
    sym.bug = r.u32le() != 0;
    sym.line = r.u32le();
    sym.file = str();
    sym.tag = str();
    t.sites[id] = std::move(sym);
  }
  const std::uint64_t count = r.fits(r.u64le(), 32, "event");
  t.events.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    Event e;
    e.seq = r.u64le();
    e.thread = r.u32le();
    e.kind = checkedKind(r, r.u32le());
    e.object = r.u32le();
    e.syncSite = r.u32le();
    e.arg = r.u32le();
    e.bugSite = r.u32le() ? BugMark::Yes : BugMark::No;
    e.access = access_of(e.kind);
    t.events.push_back(e);
  }
  return t;
}

// Version 2: LEB128 varints, varint-length strings, zigzag sequence deltas.
Trace decodeV2(wire::Reader& r) {
  Trace t;
  t.programName = r.lenBytes();
  t.seed = r.varint();
  t.mode = r.varint() ? RuntimeMode::Controlled : RuntimeMode::Native;
  for (auto n = r.count(2, "thread"); n > 0; --n) {
    ThreadId id = r.varint32();
    t.threads[id] = r.lenBytes();
  }
  for (auto n = r.count(3, "object"); n > 0; --n) {
    ObjectId id = r.varint32();
    ObjectSym sym;
    sym.kind = checkedObjectKind(r, r.varint());
    sym.name = r.lenBytes();
    t.objects[id] = std::move(sym);
  }
  for (auto n = r.count(5, "site"); n > 0; --n) {
    SiteId id = r.varint32();
    SiteSym sym;
    sym.bug = r.varint() != 0;
    sym.line = r.varint32();
    sym.file = r.lenBytes();
    sym.tag = r.lenBytes();
    t.sites[id] = std::move(sym);
  }
  const std::uint64_t count = r.count(6, "event");
  t.events.reserve(static_cast<std::size_t>(count));
  std::uint64_t seq = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    Event e;
    const std::uint64_t kindByte = r.varint();
    e.bugSite = (kindByte & kBugFlag) ? BugMark::Yes : BugMark::No;
    e.kind = checkedKind(r, kindByte & ~std::uint64_t{kBugFlag});
    // Sequence numbers are near-monotone (native-mode arrival order can
    // locally reorder), so a signed delta is 1 byte in the common case.
    seq += static_cast<std::uint64_t>(wire::unzigzag(r.varint()));
    e.seq = seq;
    e.thread = r.varint32();
    e.object = r.varint32();
    e.syncSite = r.varint32();
    e.arg = r.varint32();
    e.access = access_of(e.kind);
    t.events.push_back(e);
  }
  return t;
}

}  // namespace

std::string encodeBinary(const Trace& t) {
  std::string out = "MTTB";
  wire::putU32le(out, 2);  // version (fixed-width so readers branch cheaply)
  wire::putBytes(out, t.programName);
  wire::putVarint(out, t.seed);
  wire::putVarint(out, t.mode == RuntimeMode::Controlled ? 1 : 0);
  wire::putVarint(out, t.threads.size());
  for (const auto& [id, name] : t.threads) {
    wire::putVarint(out, id);
    wire::putBytes(out, name);
  }
  wire::putVarint(out, t.objects.size());
  for (const auto& [id, sym] : t.objects) {
    wire::putVarint(out, id);
    wire::putVarint(out, static_cast<std::uint64_t>(sym.kind));
    wire::putBytes(out, sym.name);
  }
  wire::putVarint(out, t.sites.size());
  for (const auto& [id, sym] : t.sites) {
    wire::putVarint(out, id);
    wire::putVarint(out, sym.bug ? 1 : 0);
    wire::putVarint(out, sym.line);
    wire::putBytes(out, sym.file);
    wire::putBytes(out, sym.tag);
  }
  wire::putVarint(out, t.events.size());
  std::uint64_t prevSeq = 0;
  for (const Event& e : t.events) {
    wire::putVarint(out, static_cast<std::uint64_t>(e.kind) |
                             (e.bugSite == BugMark::Yes ? kBugFlag : 0));
    wire::putVarint(out,
                    wire::zigzag(static_cast<std::int64_t>(e.seq - prevSeq)));
    prevSeq = e.seq;
    wire::putVarint(out, e.thread);
    wire::putVarint(out, e.object);
    wire::putVarint(out, e.syncSite);
    wire::putVarint(out, e.arg);
  }
  return out;
}

Trace decodeBinary(std::string_view bytes) {
  wire::Reader r(bytes, kBinaryFormat);
  if (r.remaining() < 4 || bytes.substr(0, 4) != "MTTB") r.fail("bad magic");
  r.bytes(4);
  const std::uint32_t version = r.u32le();
  Trace t;
  if (version == 1) {
    t = decodeV1(r);
  } else if (version == 2) {
    t = decodeV2(r);
  } else {
    r.fail("unsupported version " + std::to_string(version));
  }
  r.expectEnd();
  return t;
}

void writeBinary(const Trace& t, std::ostream& os) {
  const std::string bytes = encodeBinary(t);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!os) throw std::runtime_error("binary trace write failed");
}

Trace readBinary(std::istream& is) {
  return decodeBinary(std::string(std::istreambuf_iterator<char>(is), {}));
}

void writeBinaryFile(const Trace& t, const std::string& path) {
  core::atomicWriteFile(path, encodeBinary(t));
}

Trace readBinaryFile(const std::string& path) {
  std::string bytes;
  if (!core::readFile(path, bytes)) {
    throw std::runtime_error("cannot open " + path);
  }
  return decodeBinary(bytes);
}

// --- auto-detecting readers ---------------------------------------------------

namespace {

TraceFormat detectFormat(std::istream& is) {
  // Both formats start with "MTT": byte 3 disambiguates ('B' binary,
  // 'T' from "MTTTRACE" text).  Peek without consuming.
  char magic[4] = {};
  is.read(magic, 4);
  if (!is || std::memcmp(magic, "MTT", 3) != 0) {
    throw std::runtime_error("not a trace (bad magic)");
  }
  for (int i = 3; i >= 0; --i) is.putback(magic[i]);
  return magic[3] == 'B' ? TraceFormat::Binary : TraceFormat::Text;
}

}  // namespace

Trace read(std::istream& is) { return TraceReader(is).take(); }

Trace readFile(const std::string& path) { return TraceReader(path).take(); }

TraceReader::TraceReader(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path);
  *this = TraceReader(f);
}

TraceReader::TraceReader(std::istream& is) {
  format_ = detectFormat(is);
  trace_ = format_ == TraceFormat::Binary ? readBinary(is) : readText(is);
}

void TraceReader::feed(Listener& listener) const {
  trace::feed(trace_, listener);
}

// --- TraceRecorder ------------------------------------------------------------

void TraceRecorder::onRunStart(const RunInfo& info) {
  std::lock_guard<std::mutex> lk(mu_);
  trace_ = Trace{};
  trace_.programName = info.programName;
  trace_.seed = info.seed;
  trace_.mode = info.mode;
}

void TraceRecorder::onEvent(const Event& e) {
  std::lock_guard<std::mutex> lk(mu_);
  trace_.events.push_back(e);
}

void TraceRecorder::resetTool() {
  std::lock_guard<std::mutex> lk(mu_);
  trace_ = Trace{};
}

void TraceRecorder::onRunEnd() {
  std::lock_guard<std::mutex> lk(mu_);
  if (rt_ == nullptr) return;  // unbound: keep events, skip symbol tables
  // Resolve the symbol tables now: every id seen in the event stream.
  for (const Event& e : trace_.events) {
    if (trace_.threads.find(e.thread) == trace_.threads.end()) {
      trace_.threads[e.thread] = rt_->threadName(e.thread);
    }
    bool threadObj = e.kind == EventKind::ThreadStart ||
                     e.kind == EventKind::ThreadFinish ||
                     e.kind == EventKind::ThreadSpawn ||
                     e.kind == EventKind::ThreadJoin;
    if (e.object != kNoObject && !threadObj &&
        trace_.objects.find(e.object) == trace_.objects.end()) {
      rt::ObjectInfo info = rt_->objectInfo(e.object);
      trace_.objects[e.object] = ObjectSym{info.kind, info.name};
    }
    if (e.syncSite != kNoSite &&
        trace_.sites.find(e.syncSite) == trace_.sites.end()) {
      const SiteInfo& si = SiteRegistry::instance().lookup(e.syncSite);
      trace_.sites[e.syncSite] =
          SiteSym{si.tag, si.file, si.line, si.bug == BugMark::Yes};
    }
  }
}

void feed(const Trace& t, std::initializer_list<Listener*> listeners) {
  RunInfo info;
  info.programName = internName(t.programName);
  info.seed = t.seed;
  info.mode = t.mode;
  for (Listener* l : listeners) l->onRunStart(info);
  for (const Event& e : t.events) {
    for (Listener* l : listeners) l->onEvent(e);
  }
  for (Listener* l : listeners) l->onRunEnd();
}

void feed(const Trace& t, Listener& listener) { feed(t, {&listener}); }

}  // namespace mtt::trace
