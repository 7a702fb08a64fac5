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
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/atomic_file.hpp"

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
  if (!os) throw std::runtime_error("mtt: trace write failed");
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
  if (!f) throw std::runtime_error("mtt: cannot open " + path);
  return readText(f);
}

// --- binary serialization ---------------------------------------------------

namespace {

void putU32(std::ostream& os, std::uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}
void putU64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}
void putStr(std::ostream& os, const std::string& s) {
  putU32(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}
std::uint32_t getU32(std::istream& is) {
  std::uint32_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!is) throw std::runtime_error("mtt: truncated binary trace");
  return v;
}
std::uint64_t getU64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!is) throw std::runtime_error("mtt: truncated binary trace");
  return v;
}
std::string getStr(std::istream& is) {
  std::uint32_t n = getU32(is);
  std::string s(n, '\0');
  is.read(s.data(), n);
  if (!is) throw std::runtime_error("mtt: truncated binary trace");
  return s;
}

// Varint layer (format version 2).  Unsigned LEB128; signed values zigzag.
void putVar(std::ostream& os, std::uint64_t v) {
  while (v >= 0x80) {
    char b = static_cast<char>((v & 0x7f) | 0x80);
    os.write(&b, 1);
    v >>= 7;
  }
  char b = static_cast<char>(v);
  os.write(&b, 1);
}

std::uint64_t getVar(std::istream& is) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    char c = 0;
    is.read(&c, 1);
    if (!is) throw std::runtime_error("mtt: truncated binary trace");
    auto b = static_cast<std::uint8_t>(c);
    if (shift >= 64) throw std::runtime_error("mtt: malformed varint");
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

void putVarStr(std::ostream& os, const std::string& s) {
  putVar(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string getVarStr(std::istream& is) {
  std::uint64_t n = getVar(is);
  std::string s(static_cast<std::size_t>(n), '\0');
  is.read(s.data(), static_cast<std::streamsize>(n));
  if (!is) throw std::runtime_error("mtt: truncated binary trace");
  return s;
}

constexpr std::uint8_t kBugFlag = 0x80;  // high bit of the v2 kind byte

Trace readBinaryV1(std::istream& is) {
  Trace t;
  t.programName = getStr(is);
  t.seed = getU64(is);
  t.mode = getU32(is) ? RuntimeMode::Controlled : RuntimeMode::Native;
  for (std::uint32_t n = getU32(is); n > 0; --n) {
    ThreadId id = getU32(is);
    t.threads[id] = getStr(is);
  }
  for (std::uint32_t n = getU32(is); n > 0; --n) {
    ObjectId id = getU32(is);
    ObjectSym sym;
    sym.kind = static_cast<rt::ObjectKind>(getU32(is));
    sym.name = getStr(is);
    t.objects[id] = std::move(sym);
  }
  for (std::uint32_t n = getU32(is); n > 0; --n) {
    SiteId id = getU32(is);
    SiteSym sym;
    sym.bug = getU32(is) != 0;
    sym.line = getU32(is);
    sym.file = getStr(is);
    sym.tag = getStr(is);
    t.sites[id] = std::move(sym);
  }
  std::uint64_t count = getU64(is);
  t.events.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Event e;
    e.seq = getU64(is);
    e.thread = getU32(is);
    e.kind = static_cast<EventKind>(getU32(is));
    e.object = getU32(is);
    e.syncSite = getU32(is);
    e.arg = getU32(is);
    e.bugSite = getU32(is) ? BugMark::Yes : BugMark::No;
    e.access = access_of(e.kind);
    t.events.push_back(e);
  }
  return t;
}

Trace readBinaryV2(std::istream& is) {
  Trace t;
  t.programName = getVarStr(is);
  t.seed = getVar(is);
  t.mode = getVar(is) ? RuntimeMode::Controlled : RuntimeMode::Native;
  for (std::uint64_t n = getVar(is); n > 0; --n) {
    auto id = static_cast<ThreadId>(getVar(is));
    t.threads[id] = getVarStr(is);
  }
  for (std::uint64_t n = getVar(is); n > 0; --n) {
    auto id = static_cast<ObjectId>(getVar(is));
    ObjectSym sym;
    sym.kind = static_cast<rt::ObjectKind>(getVar(is));
    sym.name = getVarStr(is);
    t.objects[id] = std::move(sym);
  }
  for (std::uint64_t n = getVar(is); n > 0; --n) {
    auto id = static_cast<SiteId>(getVar(is));
    SiteSym sym;
    sym.bug = getVar(is) != 0;
    sym.line = static_cast<std::uint32_t>(getVar(is));
    sym.file = getVarStr(is);
    sym.tag = getVarStr(is);
    t.sites[id] = std::move(sym);
  }
  std::uint64_t count = getVar(is);
  t.events.reserve(static_cast<std::size_t>(count));
  std::int64_t prevSeq = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    Event e;
    std::uint64_t kindByte = getVar(is);
    e.bugSite = (kindByte & kBugFlag) ? BugMark::Yes : BugMark::No;
    e.kind = static_cast<EventKind>(kindByte & ~std::uint64_t{kBugFlag});
    if (e.kind >= EventKind::kCount) {
      throw std::runtime_error("mtt: binary trace has unknown event kind");
    }
    // Sequence numbers are near-monotone (native-mode arrival order can
    // locally reorder), so a signed delta is 1 byte in the common case.
    prevSeq += unzigzag(getVar(is));
    e.seq = static_cast<std::uint64_t>(prevSeq);
    e.thread = static_cast<ThreadId>(getVar(is));
    e.object = static_cast<ObjectId>(getVar(is));
    e.syncSite = static_cast<SiteId>(getVar(is));
    e.arg = static_cast<std::uint32_t>(getVar(is));
    e.access = access_of(e.kind);
    t.events.push_back(e);
  }
  return t;
}

}  // namespace

void writeBinary(const Trace& t, std::ostream& os) {
  os.write("MTTB", 4);
  putU32(os, 2);  // version (fixed-width so readers can branch cheaply)
  putVarStr(os, t.programName);
  putVar(os, t.seed);
  putVar(os, t.mode == RuntimeMode::Controlled ? 1 : 0);
  putVar(os, t.threads.size());
  for (const auto& [id, name] : t.threads) {
    putVar(os, id);
    putVarStr(os, name);
  }
  putVar(os, t.objects.size());
  for (const auto& [id, sym] : t.objects) {
    putVar(os, id);
    putVar(os, static_cast<std::uint64_t>(sym.kind));
    putVarStr(os, sym.name);
  }
  putVar(os, t.sites.size());
  for (const auto& [id, sym] : t.sites) {
    putVar(os, id);
    putVar(os, sym.bug ? 1 : 0);
    putVar(os, sym.line);
    putVarStr(os, sym.file);
    putVarStr(os, sym.tag);
  }
  putVar(os, t.events.size());
  std::int64_t prevSeq = 0;
  for (const Event& e : t.events) {
    std::uint64_t kindByte = static_cast<std::uint64_t>(e.kind) |
                             (e.bugSite == BugMark::Yes ? kBugFlag : 0);
    putVar(os, kindByte);
    auto seq = static_cast<std::int64_t>(e.seq);
    putVar(os, zigzag(seq - prevSeq));
    prevSeq = seq;
    putVar(os, e.thread);
    putVar(os, e.object);
    putVar(os, e.syncSite);
    putVar(os, e.arg);
  }
  if (!os) throw std::runtime_error("mtt: binary trace write failed");
}

Trace readBinary(std::istream& is) {
  char magic[4] = {};
  is.read(magic, 4);
  if (!is || std::memcmp(magic, "MTTB", 4) != 0) {
    throw std::runtime_error("mtt: not a binary trace");
  }
  std::uint32_t version = getU32(is);
  if (version == 1) return readBinaryV1(is);
  if (version == 2) return readBinaryV2(is);
  throw std::runtime_error("mtt: unsupported trace version " +
                           std::to_string(version));
}

void writeBinaryFile(const Trace& t, const std::string& path) {
  std::ostringstream f(std::ios::binary);
  writeBinary(t, f);
  core::atomicWriteFile(path, f.str());
}

Trace readBinaryFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("mtt: cannot open " + path);
  return readBinary(f);
}

// --- auto-detecting readers ---------------------------------------------------

namespace {

TraceFormat detectFormat(std::istream& is) {
  // Both formats start with "MTT": byte 3 disambiguates ('B' binary,
  // 'T' from "MTTTRACE" text).  Peek without consuming.
  char magic[4] = {};
  is.read(magic, 4);
  if (!is || std::memcmp(magic, "MTT", 3) != 0) {
    throw std::runtime_error("mtt: not a trace (bad magic)");
  }
  for (int i = 3; i >= 0; --i) is.putback(magic[i]);
  return magic[3] == 'B' ? TraceFormat::Binary : TraceFormat::Text;
}

}  // namespace

Trace read(std::istream& is) {
  return detectFormat(is) == TraceFormat::Binary ? readBinary(is)
                                                 : readText(is);
}

Trace readFile(const std::string& path) {
  // Binary-safe open either way; the text parser reads through getline.
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("mtt: cannot open " + path);
  return read(f);
}

TraceReader::TraceReader(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("mtt: cannot open " + path);
  format_ = detectFormat(f);
  trace_ = format_ == TraceFormat::Binary ? readBinary(f) : readText(f);
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
