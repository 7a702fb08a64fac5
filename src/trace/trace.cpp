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
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>

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

rt::ObjectKind kindFromName(const std::string& s) {
  if (s == "mutex") return rt::ObjectKind::Mutex;
  if (s == "rwlock") return rt::ObjectKind::RwLock;
  if (s == "condvar") return rt::ObjectKind::CondVar;
  if (s == "semaphore") return rt::ObjectKind::Semaphore;
  if (s == "barrier") return rt::ObjectKind::Barrier;
  if (s == "thread") return rt::ObjectKind::Thread;
  if (s == "taskqueue") return rt::ObjectKind::TaskQueue;
  if (s == "atomic") return rt::ObjectKind::Atomic;
  return rt::ObjectKind::Variable;
}

[[noreturn]] void parseError(const std::string& what, std::size_t lineNo) {
  throw std::runtime_error("mtt trace parse error at line " +
                           std::to_string(lineNo) + ": " + what);
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

Trace readText(std::istream& is) {
  Trace t;
  std::string line;
  std::size_t lineNo = 0;
  auto next = [&]() -> bool {
    while (std::getline(is, line)) {
      ++lineNo;
      if (!line.empty() && line[0] != '#') return true;
    }
    return false;
  };
  if (!next() || line.rfind("MTTTRACE", 0) != 0) {
    parseError("missing MTTTRACE header", lineNo);
  }
  bool sawEnd = false;
  while (next()) {
    std::istringstream ls(line);
    std::string kw;
    ls >> kw;
    if (kw == "program") {
      std::string rest;
      std::getline(ls, rest);
      t.programName = rest.empty() ? "" : rest.substr(1);
    } else if (kw == "seed") {
      ls >> t.seed;
    } else if (kw == "mode") {
      std::string m;
      ls >> m;
      t.mode =
          m == "controlled" ? RuntimeMode::Controlled : RuntimeMode::Native;
    } else if (kw == "thread") {
      ThreadId id;
      std::string rest;
      ls >> id;
      std::getline(ls, rest);
      t.threads[id] = rest.empty() ? "" : rest.substr(1);
    } else if (kw == "object") {
      ObjectId id;
      std::string kind, rest;
      ls >> id >> kind;
      std::getline(ls, rest);
      t.objects[id] =
          ObjectSym{kindFromName(kind), rest.empty() ? "" : rest.substr(1)};
    } else if (kw == "site") {
      SiteId id;
      int bug;
      SiteSym sym;
      ls >> id >> bug >> sym.line >> sym.file;
      std::string rest;
      std::getline(ls, rest);
      sym.tag = rest.empty() ? "" : rest.substr(1);
      if (sym.file == "-") sym.file.clear();
      sym.bug = bug != 0;
      t.sites[id] = std::move(sym);
    } else if (kw == "events") {
      // count is informational; records are self-delimiting
    } else if (kw == "e") {
      Event e;
      std::string kind;
      int bug;
      ls >> e.seq >> e.thread >> kind >> e.object >> e.syncSite >> e.arg >>
          bug;
      if (!ls) parseError("malformed event record", lineNo);
      if (!event_kind_from_string(kind, e.kind)) {
        parseError("unknown event kind '" + kind + "'", lineNo);
      }
      e.access = access_of(e.kind);
      e.bugSite = bug ? BugMark::Yes : BugMark::No;
      t.events.push_back(e);
    } else if (kw == "end") {
      sawEnd = true;
      break;
    } else {
      parseError("unknown keyword '" + kw + "'", lineNo);
    }
  }
  if (!sawEnd) parseError("missing 'end'", lineNo);
  return t;
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
