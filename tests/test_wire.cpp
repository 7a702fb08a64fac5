// The decoder harness: one table of every artifact format mtt trades
// between its tools (MTTSCHED v2/v3, MTTJOURNAL, MSNP1, binary trace v2 and
// v1, the MTTTRACE text trace, the pipe record, fleet frames carrying
// HELLO/SPEC/LEASE/RECORD payloads, MTTGUIDE), each with a sample of real encoder output, fed to its
// decoder at every byte prefix and under every single-byte corruption
// (XOR 0x01/0x55/0xFF; overwrite with '\t', '\n', '-', ' ', 'x').  For
// every input the decoder must return or throw std::runtime_error naming
// the format, and no single allocation during the decode may exceed the
// input size plus 64 KiB (the counting operator new below).  Prefixes:
// strict formats reject every strict prefix; MTTJOURNAL, MTTGUIDE and the
// fleet stream load every prefix as a prefix of the sample's records with
// identical values and flag the torn tail.  An accepted corruption
// re-encodes to bytes that decode to the same value.  And every sample
// encodes to the hex pinned below, so no codec change can move a byte.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <new>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/wire.hpp"
#include "coverage/snapshot.hpp"
#include "experiment/experiment.hpp"
#include "farm/journal.hpp"
#include "farm/record_io.hpp"
#include "fleet/protocol.hpp"
#include "guide/guide.hpp"
#include "replay/replay.hpp"
#include "trace/trace.hpp"

// --- the largest single allocation while a decoder runs ----------------------

namespace {

std::atomic<bool> g_watching{false};
std::atomic<std::size_t> g_largest{0};

void* countedAlloc(std::size_t n) {
  if (g_watching.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest.load(std::memory_order_relaxed);
    while (n > seen && !g_largest.compare_exchange_weak(seen, n)) {
    }
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return countedAlloc(n); }
void* operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mtt {
namespace {

constexpr std::size_t kAllocSlack = 64 * 1024;

/// Runs `fn` and returns the largest single allocation it made.
template <typename Fn>
std::size_t largestAllocation(Fn&& fn) {
  g_largest.store(0);
  g_watching.store(true);
  try {
    fn();
  } catch (...) {
    g_watching.store(false);
    throw;
  }
  g_watching.store(false);
  return g_largest.load();
}

// --- samples -----------------------------------------------------------------

replay::Scenario scenarioV2Sample() {
  replay::Scenario s;
  s.program = "philosophers_deadlock";
  s.seed = 7;
  s.noise = "mixed";
  s.strength = 1.0;
  s.schedule = rt::Schedule::fromThreads({1, 2, 3, 12, 3, 2, 1, 10, 11, 2});
  return s;
}

replay::Scenario scenarioV3Sample() {
  replay::Scenario s;
  s.program = "mp_reorder";
  s.seed = 3;
  s.schedule.decisions = {
      rt::Decision::thread(1), rt::Decision::thread(2),
      rt::Decision::store(1),  rt::Decision::thread(2),
      rt::Decision::store(0),  rt::Decision::thread(1),
  };
  return s;
}

coverage::Snapshot snapshotSample() {
  coverage::Snapshot s;
  s.known = {"alpha", "beta", "delta", "gamma"};
  s.covered = {"beta", "delta"};
  s.closed = true;
  s.outsideUniverse = 300;  // a two-byte varint
  return s;
}

experiment::RunObservation observationSample(std::uint64_t index) {
  experiment::RunObservation o;
  o.runIndex = index;
  o.seed = 1234567890123ull + index;
  o.status = index == 2 ? "timeout" : "assert-failed";
  o.manifested = index != 2;
  o.hasDetectors = true;
  o.detectorHit = index == 0;
  o.warnings = 3;
  o.trueWarnings = 2;
  o.falseWarnings = 1;
  o.deadlockPotentials = 9;
  o.wallSeconds = 0.123456789012345678;
  o.events = 987654;
  o.noiseInjections = 55;
  o.outcome = "weird\toutcome\nwith\\escapes";
  o.failureMessage = "assert: x == y\tfailed";
  o.attempts = 3;
  o.dispatchDeliveries = 77;
  o.dispatchNsPerEvent = 12.5;
  o.postmortemPath = index == 2 ? "pm/run2.postmortem.scenario" : "";
  if (index != 1) o.coverage = snapshotSample().encode();
  return o;
}

trace::Trace traceSample() {
  trace::Trace t;
  t.programName = "account";
  t.seed = 300;
  t.mode = RuntimeMode::Controlled;
  t.threads = {{1, "main"}, {2, "worker\tb"}};
  t.objects = {{5, {rt::ObjectKind::Mutex, "lock"}},
               {6, {rt::ObjectKind::Atomic, "flag"}},
               {7, {rt::ObjectKind::Variable, "balance"}}};
  t.sites = {{3, {"acct.read", "account.cpp", 200, true}},
             {4, {"acct.lock", "", 12, false}}};
  auto ev = [](std::uint64_t seq, ThreadId th, EventKind k, ObjectId obj,
               SiteId site, std::uint32_t arg, BugMark bug) {
    Event e;
    e.seq = seq;
    e.thread = th;
    e.kind = k;
    e.object = obj;
    e.syncSite = site;
    e.arg = arg;
    e.bugSite = bug;
    e.access = access_of(k);
    return e;
  };
  t.events = {ev(1, 1, EventKind::MutexLock, 5, 4, 0, BugMark::No),
              ev(2, 1, EventKind::VarRead, 7, 3, 0, BugMark::Yes),
              ev(4, 2, EventKind::VarWrite, 7, 3, 70000, BugMark::Yes),
              ev(3, 1, EventKind::MutexUnlock, 5, 4, 0, BugMark::No),
              ev(300, 2, EventKind::Yield, 6, 0, 1, BugMark::No)};
  return t;
}

experiment::RunSpec specSample() {
  experiment::RunSpec spec;
  spec.programName = "account";
  spec.seedBase = 7;
  spec.tool.policy = "pct:d=3";
  spec.tool.noiseName = "mixed";
  spec.tool.noiseOpts.strength = 0.4;
  spec.tool.detectors = {"lockset"};
  spec.tool.noiseTargets = {"lock:a"};
  spec.tool.coverage = "switch-pair";
  rt::RunOptions ro;
  ro.maxSteps = 12345;
  ro.blockTimeout = std::chrono::milliseconds(777);
  ro.dispatchTiming = true;
  spec.runOptions = ro;
  return spec;
}

fleet::LeasePayload leaseSample() {
  fleet::LeasePayload lease;
  lease.leaseId = 3;
  lease.runs.push_back(fleet::RunAssignment{9, 16, "mixed", 0.25, "pct:d=2"});
  lease.runs.push_back(fleet::RunAssignment{10, 17, "", 0.0, ""});
  return lease;
}

std::vector<std::string> guideLabelsSample() {
  return {"yield@0.25", "mixed@0.25", "pct:d=3/mixed@0.5"};
}

std::map<std::uint64_t, std::pair<std::size_t, std::uint64_t>>
guideAssignmentsSample() {
  std::map<std::uint64_t, std::pair<std::size_t, std::uint64_t>> a;
  for (std::uint64_t i = 0; i < 24; ++i) a[i] = {i % 3, 7 + i};
  return a;
}

constexpr std::uint64_t kJournalDigestSample = 0x0123456789abcdefull;
constexpr std::uint64_t kGuideDigestSample = 0xfeedfacecafebeefull;

/// Version-1 binary trace layout (fixed-width little-endian fields,
/// u32-length strings), which only earlier builds wrote.
std::string traceV1(const trace::Trace& t) {
  std::string out = "MTTB";
  auto u32 = [&out](std::uint64_t v) {
    wire::putU32le(out, static_cast<std::uint32_t>(v));
  };
  auto u64 = [&u32](std::uint64_t v) {
    u32(v);
    u32(v >> 32);
  };
  auto str = [&](const std::string& s) {
    u32(s.size());
    out += s;
  };
  u32(1);
  str(t.programName);
  u64(t.seed);
  u32(t.mode == RuntimeMode::Controlled ? 1 : 0);
  u32(t.threads.size());
  for (const auto& [id, name] : t.threads) {
    u32(id);
    str(name);
  }
  u32(t.objects.size());
  for (const auto& [id, sym] : t.objects) {
    u32(id);
    u32(static_cast<std::uint32_t>(sym.kind));
    str(sym.name);
  }
  u32(t.sites.size());
  for (const auto& [id, sym] : t.sites) {
    u32(id);
    u32(sym.bug ? 1 : 0);
    u32(sym.line);
    str(sym.file);
    str(sym.tag);
  }
  u64(t.events.size());
  for (const Event& e : t.events) {
    u64(e.seq);
    u32(e.thread);
    u32(static_cast<std::uint32_t>(e.kind));
    u32(e.object);
    u32(e.syncSite);
    u32(e.arg);
    u32(e.bugSite == BugMark::Yes ? 1 : 0);
  }
  return out;
}

// Every sample's encoding, captured from the encoders the kit replaced.
constexpr char kGoldenMTTSCHED2[] =
    "4d5454534348454420320a70726f6772616d207068696c6f736f70686572735f"
    "646561646c6f636b0a7365656420370a706f6c6963792072616e646f6d0a6e6f"
    "697365206d697865640a737472656e67746820310a6465636973696f6e732031"
    "300a310a320a330a31320a330a320a310a31300a31310a320a656e640a";

constexpr char kGoldenMTTSCHED3[] =
    "4d5454534348454420330a70726f6772616d206d705f72656f726465720a7365"
    "656420330a706f6c6963792072616e646f6d0a6e6f697365206e6f6e650a7374"
    "72656e67746820302e32350a6465636973696f6e7320360a310a320a7320310a"
    "320a7320300a310a656e640a";

constexpr char kGoldenMTTJOURNAL[] =
    "4d54544a4f55524e414c20310a636f6e66696720303132333435363738396162"
    "6364656620330a52203263616431336364633231336264353120300931323334"
    "353637383930313233096173736572742d6661696c6564093109310931093309"
    "320931093909302e313233343536373839303132333435363809393837363534"
    "0935350977656972645c746f7574636f6d655c6e776974685c5c657363617065"
    "73096173736572743a2078203d3d20795c746661696c65640933093737093132"
    "2e35090934643533346535303331303161633032303430353631366337303638"
    "3631303436323635373436313035363436353663373436313035363736313664"
    "366436313032303130320a522061393061653739366332356338666664203109"
    "31323334353637383930313234096173736572742d6661696c65640931093109"
    "30093309320931093909302e3132333435363738393031323334353638093938"
    "373635340935350977656972645c746f7574636f6d655c6e776974685c5c6573"
    "6361706573096173736572743a2078203d3d20795c746661696c656409330937"
    "370931322e3509090a5220383637316164303031653030396264622032093132"
    "33343536373839303132350974696d656f757409300931093009330932093109"
    "3909302e31323334353637383930313233343536380939383736353409353509"
    "77656972645c746f7574636f6d655c6e776974685c5c65736361706573096173"
    "736572743a2078203d3d20795c746661696c656409330937370931322e350970"
    "6d2f72756e322e706f73746d6f7274656d2e7363656e6172696f093464353334"
    "6535303331303161633032303430353631366337303638363130343632363537"
    "3436313035363436353663373436313035363736313664366436313032303130"
    "320a";

constexpr char kGoldenMSNP1[] =
    "4d534e503101ac020405616c70686104626574610564656c74610567616d6d61"
    "020102";

constexpr char kGoldenMTTB2[] =
    "4d54544202000000076163636f756e74ac02010201046d61696e0208776f726b"
    "65720962030500046c6f636b060804666c616707050762616c616e6365020301"
    "c8010b6163636f756e742e63707009616363742e7265616404000c0009616363"
    "742e6c6f636b0504020105040094010201070300950104020703f0a204050101"
    "05040016d20402060001";

constexpr char kGoldenMTTTRACE[] =
    "4d5454545241434520310a70726f6772616d206163636f756e740a7365656420"
    "3330300a6d6f646520636f6e74726f6c6c65640a7468726561642031206d6169"
    "6e0a746872656164203220776f726b657209620a6f626a6563742035206d7574"
    "6578206c6f636b0a6f626a65637420362061746f6d696320666c61670a6f626a"
    "6563742037207661726961626c652062616c616e63650a736974652033203120"
    "323030206163636f756e742e63707020616363742e726561640a736974652034"
    "2030203132202d20616363742e6c6f636b0a6576656e747320350a6520312031"
    "204d757465784c6f636b20352034203020300a65203220312056617252656164"
    "20372033203020310a6520342032205661725772697465203720332037303030"
    "3020310a6520332031204d75746578556e6c6f636b20352034203020300a6520"
    "3330302032205969656c6420362030203120300a656e640a";

constexpr char kGoldenPIPE[] =
    "300931323334353637383930313233096173736572742d6661696c6564093109"
    "310931093309320931093909302e313233343536373839303132333435363809"
    "3938373635340935350977656972645c746f7574636f6d655c6e776974685c5c"
    "65736361706573096173736572743a2078203d3d20795c746661696c65640933"
    "0937370931322e35090934643533346535303331303161633032303430353631"
    "3663373036383631303436323635373436313035363436353663373436313035"
    "36373631366436643631303230313032";

constexpr char kGoldenFLEET[] =
    "0b000000484d5454464c454554203134010000534d54545350454320310a7072"
    "6f6772616d096163636f756e740a6d6f646509636f6e74726f6c6c65640a706f"
    "6c696379097063743a643d330a6e6f697365096d697865640a737472656e6774"
    "6809302e34303030303030303030303030303030320a6d61782d7969656c6473"
    "09340a6d61782d736c6565702d6e617469766509313030300a6d61782d736c65"
    "65702d636f6e74726f6c6c65640934300a746172676574096c6f636b3a610a64"
    "65746563746f72096c6f636b7365740a6c6f636b2d677261706809300a636f76"
    "6572616765097377697463682d706169720a636c6f7365642d756e6976657273"
    "6509300a736565642d6261736509370a6d61782d73746570730931323334350a"
    "626c6f636b2d74696d656f75742d6d73093737370a64697370617463682d7469"
    "6d696e6709310a240000004c330a39093136096d6978656409302e3235097063"
    "743a643d320a31300931370909300ad300000052330930093132333435363738"
    "3930313233096173736572742d6661696c656409310931093109330932093109"
    "3909302e31323334353637383930313233343536380939383736353409353509"
    "77656972645c746f7574636f6d655c6e776974685c5c65736361706573096173"
    "736572743a2078203d3d20795c746661696c656409330937370931322e350909"
    "3464353334653530333130316163303230343035363136633730363836313034"
    "3632363537343631303536343635366337343631303536373631366436643631"
    "3032303130320200000044330100000042";

constexpr char kGoldenMTTGUIDE[] =
    "4d5454475549444520310a636f6e666967206665656466616365636166656265"
    "65660a61726d7320330a61726d2030207969656c6440302e32350a61726d2031"
    "206d6978656440302e32350a61726d2032207063743a643d332f6d6978656440"
    "302e350a412030203020370a412031203120380a412032203220390a41203320"
    "302031300a41203420312031310a41203520322031320a41203620302031330a"
    "41203720312031340a41203820322031350a41203920302031360a4120313020"
    "312031370a4120313120322031380a4120313220302031390a41203133203120"
    "32300a4120313420322032310a4120313520302032320a412031362031203233"
    "0a4120313720322032340a4120313820302032350a4120313920312032360a41"
    "20323020322032370a4120323120302032380a4120323220312032390a412032"
    "3320322033300a";

// --- the format table --------------------------------------------------------

/// How a format answers a prefix of a valid input.
enum class Mode {
  Strict,    ///< rejects every strict prefix
  TornTail,  ///< loads a prefix of the records, torn tail flagged
};

/// What a decoder made of an input.
struct Loaded {
  std::vector<std::string> records;  ///< canonical bytes of each record
  bool torn = false;                 ///< trailing bytes were dropped
  std::string reencoded;             ///< canonical bytes of the whole value
};

struct Format {
  std::string name;
  Mode mode = Mode::Strict;
  std::string sample;
  const char* golden = nullptr;  ///< hex of the sample (null: no encoder)
  /// What the sample re-encodes to ("" means the sample itself).
  std::string reencodes;
  /// Substring every rejection's diagnostic carries.
  std::string errorTag;
  /// TornTail: prefix lengths that end on a commit (nothing torn).
  /// Strict: the one prefix a format without a terminator cannot tell from
  /// a whole value (accepted; its carrier catches the cut).
  std::set<std::size_t> commits;
  /// Decodes and re-encodes; throws std::runtime_error on rejection.
  std::function<Loaded(std::string_view)> load;
  /// Bytes after a whole value are ignored (MTTSCHED's postmortem
  /// annotations, a torn tail) rather than rejected.
  bool ignoresTrailing = false;
};

Loaded whole(std::string bytes) {
  Loaded l;
  l.reencoded = std::move(bytes);
  return l;
}

/// Commits of a '\n'-terminated text whose first `headerEnd` bytes are one
/// atomic write: the end of the header and every later line end.
std::set<std::size_t> lineCommits(const std::string& text,
                                  std::size_t headerEnd) {
  std::set<std::size_t> out{headerEnd};
  for (std::size_t i = headerEnd; i < text.size(); ++i) {
    if (text[i] == '\n') out.insert(i + 1);
  }
  return out;
}

/// One fleet frame's payload, decoded and re-encoded.
std::string reencodePayload(fleet::FrameType type, const std::string& p) {
  using fleet::FrameType;
  std::string err;
  bool ok = true;
  std::string out = p;  // HEARTBEAT / QUIT / ERROR carry free text
  switch (type) {
    case FrameType::Hello: {
      std::uint32_t version = 0;
      ok = fleet::decodeHello(p, version, err);
      out = "MTTFLEET " + std::to_string(version);
      break;
    }
    case FrameType::Spec: {
      experiment::RunSpec spec;
      ok = fleet::decodeSpec(p, spec, err);
      if (ok) out = fleet::encodeSpec(spec);
      break;
    }
    case FrameType::Lease: {
      fleet::LeasePayload lease;
      ok = fleet::decodeLease(p, lease, err);
      if (ok) out = fleet::encodeLease(lease);
      break;
    }
    case FrameType::Record: {
      std::uint64_t lease = 0;
      experiment::RunObservation obs;
      ok = fleet::decodeRecord(p, lease, obs, err);
      if (ok) out = fleet::encodeRecord(lease, obs);
      break;
    }
    case FrameType::LeaseDone: {
      std::uint64_t lease = 0;
      ok = fleet::decodeLeaseDone(p, lease, err);
      out = fleet::encodeLeaseDone(lease);
      break;
    }
    default:
      break;
  }
  if (!ok) throw std::runtime_error("fleet payload: " + err);
  return out;
}

/// Drains a fleet byte stream the way a connection does: every complete
/// frame is a record, a trailing partial frame is the torn tail, and a
/// corrupt frame rejects the stream.
Loaded loadFrames(std::string_view bytes) {
  Loaded l;
  std::string buffer(bytes);
  for (;;) {
    fleet::ParseResult r = fleet::tryParseFrame(buffer);
    if (r.status == fleet::ParseStatus::Corrupt) {
      throw std::runtime_error("fleet frame: " + r.error);
    }
    if (r.status == fleet::ParseStatus::NeedMore) {
      l.torn = !buffer.empty();
      return l;
    }
    if (r.consumed == 0 || r.consumed > buffer.size()) {
      throw std::logic_error("fleet frame consumed out of range");
    }
    std::string frame = fleet::encodeFrame(
        r.frame.type, reencodePayload(r.frame.type, r.frame.payload));
    l.reencoded += frame;
    l.records.push_back(std::move(frame));
    buffer.erase(0, r.consumed);
  }
}

std::vector<experiment::RunObservation> journalSample() {
  return {observationSample(0), observationSample(1), observationSample(2)};
}

std::string fleetSample() {
  using fleet::FrameType;
  std::string f = fleet::encodeFrame(FrameType::Hello, fleet::encodeHello());
  f += fleet::encodeFrame(FrameType::Spec, fleet::encodeSpec(specSample()));
  f += fleet::encodeFrame(FrameType::Lease, fleet::encodeLease(leaseSample()));
  f += fleet::encodeFrame(FrameType::Record,
                          fleet::encodeRecord(3, observationSample(0)));
  f += fleet::encodeFrame(FrameType::LeaseDone, fleet::encodeLeaseDone(3));
  f += fleet::encodeFrame(FrameType::Heartbeat, "");
  return f;
}

std::vector<Format> formats() {
  std::vector<Format> out;
  auto scenario = [](std::string_view b) {
    return whole(replay::encodeScenario(replay::decodeScenario(b, "sample")));
  };
  out.push_back({"MTTSCHED_v2", Mode::Strict,
                 replay::encodeScenario(scenarioV2Sample()), kGoldenMTTSCHED2,
                 "", "bad scenario file", {}, scenario});
  out.push_back({"MTTSCHED_v3", Mode::Strict,
                 replay::encodeScenario(scenarioV3Sample()), kGoldenMTTSCHED3,
                 "", "bad scenario file", {}, scenario});
  out[0].ignoresTrailing = out[1].ignoresTrailing = true;

  const std::string journal =
      farm::renderJournal(kJournalDigestSample, 3, journalSample());
  out.push_back(
      {"MTTJOURNAL", Mode::TornTail, journal, kGoldenMTTJOURNAL, "",
       "journal", lineCommits(journal, journal.find("\nR ") + 1),
       [](std::string_view b) {
         farm::JournalData jd = farm::parseJournal(b, "sample");
         Loaded l;
         for (const auto& r : jd.records) {
           l.records.push_back(farm::encodePipeRecord(r));
         }
         l.torn = jd.tornTail;
         l.reencoded =
             farm::renderJournal(jd.configDigest, jd.total, jd.records);
         return l;
       }});

  out.push_back({"MSNP1", Mode::Strict, snapshotSample().encode(),
                 kGoldenMSNP1, "", "coverage snapshot", {},
                 [](std::string_view b) {
                   return whole(coverage::Snapshot::decode(b).encode());
                 }});

  auto trace = [](std::string_view b) {
    return whole(trace::encodeBinary(trace::decodeBinary(b)));
  };
  out.push_back({"trace_v2", Mode::Strict, trace::encodeBinary(traceSample()),
                 kGoldenMTTB2, "", "binary trace", {}, trace});
  out.push_back({"trace_v1", Mode::Strict, traceV1(traceSample()), nullptr,
                 trace::encodeBinary(traceSample()), "binary trace", {},
                 trace});

  // Text: everything after the "end" line is ignored, like MTTSCHED's
  // trailer.
  auto textOf = [](const trace::Trace& t) {
    std::ostringstream os;
    trace::writeText(t, os);
    return os.str();
  };
  out.push_back({"trace_text", Mode::Strict, textOf(traceSample()),
                 kGoldenMTTTRACE, "", "text trace", {},
                 [textOf](std::string_view b) {
                   return whole(textOf(trace::decodeText(b)));
                 }});
  out.back().ignoresTrailing = true;

  // The pipe record has no terminator: cut right after its last tab it is
  // byte for byte a record without coverage.  Journal checksums and frame
  // lengths, its only carriers, reject that cut.
  const std::string pipe = farm::encodePipeRecord(observationSample(0));
  out.push_back({"pipe_record", Mode::Strict, pipe, kGoldenPIPE, "",
                 "pipe record", {pipe.rfind('\t') + 1},
                 [](std::string_view b) {
                   experiment::RunObservation o;
                   if (!farm::decodePipeRecord(std::string(b), o)) {
                     throw std::runtime_error("pipe record: rejected");
                   }
                   return whole(farm::encodePipeRecord(o));
                 }});

  const std::string frames = fleetSample();
  std::set<std::size_t> frameEnds{0};
  for (std::size_t at = 0; at < frames.size();) {
    at += fleet::tryParseFrame(frames.substr(at)).consumed;
    frameEnds.insert(at);
  }
  out.push_back({"fleet_frames", Mode::TornTail, frames, kGoldenFLEET, "",
                 "fleet", frameEnds, loadFrames});

  const std::string guideLog = guide::renderDecisionLog(
      kGuideDigestSample, guideLabelsSample(), guideAssignmentsSample());
  out.push_back(
      {"MTTGUIDE", Mode::TornTail, guideLog, kGoldenMTTGUIDE, "",
       "decision log", lineCommits(guideLog, guideLog.find("\nA ") + 1),
       [](std::string_view b) {
         guide::DecisionLog log = guide::parseDecisionLog(b, "sample");
         Loaded l;
         for (const auto& [idx, as] : log.assignments) {
           l.records.push_back(std::to_string(idx) + " " +
                               std::to_string(as.first) + " " +
                               std::to_string(as.second));
         }
         l.torn = log.tornTail;
         // A log cut inside its header holds nothing: it re-encodes empty.
         if (!log.labels.empty()) {
           l.reencoded = guide::renderDecisionLog(log.digest, log.labels,
                                                  log.assignments);
         }
         return l;
       }});
  for (Format& f : out) {
    if (f.mode == Mode::TornTail) f.ignoresTrailing = true;
  }
  return out;
}

/// Decodes `input`, asserting the harness-wide contract: only
/// std::runtime_error escapes, its diagnostic names the format, and no
/// single allocation exceeds the input plus kAllocSlack.  Returns the
/// decoded value, or nothing when the input was rejected.
std::optional<Loaded> decode(const Format& f, std::string_view input,
                             const std::string& what) {
  std::optional<Loaded> loaded;
  std::size_t largest = 0;
  try {
    largest = largestAllocation([&] { loaded = f.load(input); });
  } catch (const std::runtime_error& e) {
    largest = g_largest.load();
    EXPECT_NE(std::string(e.what()).find(f.errorTag), std::string::npos)
        << what << ": " << e.what();
    loaded.reset();
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": threw a non-runtime_error: " << e.what();
    loaded.reset();
  }
  EXPECT_LE(largest, input.size() + kAllocSlack) << what;
  return loaded;
}

void checkSample(const Format& f) {
  if (f.golden != nullptr) {
    EXPECT_EQ(wire::toHex(f.sample), f.golden);
  }
  std::optional<Loaded> l = decode(f, f.sample, "sample");
  ASSERT_TRUE(l.has_value());
  EXPECT_EQ(l->reencoded, f.reencodes.empty() ? f.sample : f.reencodes);
  EXPECT_FALSE(l->torn);
  if (f.mode == Mode::TornTail) {
    EXPECT_EQ(l->records.size(), f.commits.size() - 1);  // one per commit
  }
  // A stray byte after the value: rejected, or ignored without a trace.
  std::optional<Loaded> extra = decode(f, f.sample + "x", "trailing byte");
  EXPECT_EQ(extra.has_value(), f.ignoresTrailing);
  if (extra) {
    EXPECT_EQ(extra->reencoded, l->reencoded);
  }
}

void checkPrefixes(const Format& f) {
  std::optional<Loaded> full = decode(f, f.sample, "sample");
  ASSERT_TRUE(full.has_value());
  for (std::size_t n = 0; n < f.sample.size(); ++n) {
    const std::string what = "prefix " + std::to_string(n);
    std::optional<Loaded> l =
        decode(f, std::string_view(f.sample).substr(0, n), what);
    if (f.mode == Mode::Strict) {
      EXPECT_EQ(l.has_value(), f.commits.count(n) != 0) << what;
      continue;
    }
    ASSERT_TRUE(l.has_value()) << what << " was rejected";
    EXPECT_EQ(l->torn, f.commits.count(n) == 0) << what;
    ASSERT_LE(l->records.size(), full->records.size()) << what;
    for (std::size_t i = 0; i < l->records.size(); ++i) {
      EXPECT_EQ(l->records[i], full->records[i]) << what << " record " << i;
    }
  }
}

void checkCorruptions(const Format& f) {
  const std::vector<std::function<char(char)>> mutations = {
      [](char c) { return static_cast<char>(c ^ 0x01); },
      [](char c) { return static_cast<char>(c ^ 0x55); },
      [](char c) { return static_cast<char>(c ^ 0xFF); },
      [](char) { return '\t'; },
      [](char) { return '\n'; },
      [](char) { return '-'; },
      [](char) { return ' '; },
      [](char) { return 'x'; },
  };
  for (std::size_t pos = 0; pos < f.sample.size(); ++pos) {
    for (std::size_t m = 0; m < mutations.size(); ++m) {
      std::string mut = f.sample;
      mut[pos] = mutations[m](mut[pos]);
      if (mut == f.sample) continue;
      const std::string what =
          "byte " + std::to_string(pos) + " mutation " + std::to_string(m);
      std::optional<Loaded> l = decode(f, mut, what);
      if (!l) continue;
      // Accepted: its canonical re-encoding must decode to the same value.
      std::optional<Loaded> again = decode(f, l->reencoded, what + " again");
      ASSERT_TRUE(again.has_value()) << what;
      EXPECT_EQ(again->reencoded, l->reencoded) << what;
    }
  }
}

TEST(WireHarness, EverySampleEncodesToItsPinnedBytes) {
  for (const Format& f : formats()) {
    SCOPED_TRACE(f.name);
    checkSample(f);
  }
}

TEST(WireHarness, EveryPrefixIsRejectedOrARecordPrefix) {
  for (const Format& f : formats()) {
    SCOPED_TRACE(f.name);
    checkPrefixes(f);
  }
}

TEST(WireHarness, EverySingleByteCorruptionIsRejectedOrStable) {
  for (const Format& f : formats()) {
    SCOPED_TRACE(f.name);
    checkCorruptions(f);
  }
}

// --- length claims that dwarf the input --------------------------------------

TEST(WireReader, HugeTraceLengthsFailWithoutAllocating) {
  // A 13-byte v2 trace whose name claims 2^28 bytes, a v1 trace whose name
  // claims 4 GiB, and a v2 name length of 2^62: each is one
  // std::runtime_error naming the format, raised before any allocation
  // sized by the claim.
  std::string v2 = "MTTB";
  wire::putU32le(v2, 2);
  wire::putVarint(v2, std::uint64_t{1} << 28);
  ASSERT_EQ(v2.size(), 13u);
  std::string v1 = "MTTB";
  wire::putU32le(v1, 1);
  wire::putU32le(v1, 0xffffffffu);
  std::string huge = "MTTB";
  wire::putU32le(huge, 2);
  wire::putVarint(huge, std::uint64_t{1} << 62);
  for (const std::string& bytes : {v2, v1, huge}) {
    std::string message;
    const std::size_t largest = largestAllocation([&] {
      try {
        (void)trace::decodeBinary(bytes);
      } catch (const std::runtime_error& e) {
        message = e.what();
      }
    });
    EXPECT_EQ(message.rfind("binary trace: truncated", 0), 0u) << message;
    EXPECT_EQ(message.find("mtt:"), std::string::npos) << message;
    EXPECT_LE(largest, bytes.size() + kAllocSlack);
  }
  // The stream reader takes the same path.
  std::istringstream in(v2);
  EXPECT_THROW((void)trace::readBinary(in), std::runtime_error);
}

TEST(WireReader, CountsMustFitTheBytesLeft) {
  std::string bytes;
  wire::putVarint(bytes, 1000);
  bytes += "abc";
  wire::Reader r(bytes, "test format");
  try {
    r.count(1, "item");
    FAIL() << "an implausible count was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("test format: implausible", 0), 0u)
        << e.what();
  }
}

// --- the primitives --------------------------------------------------------

TEST(WirePrimitives, VarintsRoundTripAndRejectOverflow) {
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{127},
                          std::uint64_t{128}, std::uint64_t{300},
                          ~std::uint64_t{0}}) {
    std::string out;
    wire::putVarint(out, v);
    wire::Reader r(out, "varint");
    EXPECT_EQ(r.varint(), v);
    r.expectEnd();
  }
  for (std::int64_t d : {0, -1, 1, -300, 300}) {
    EXPECT_EQ(wire::unzigzag(wire::zigzag(d)), d);
  }
  const std::string overflow = std::string(9, '\xff') + '\x02';
  wire::Reader r(overflow, "varint");
  EXPECT_THROW(r.varint(), std::runtime_error);
  std::string big;
  wire::putVarint(big, std::uint64_t{1} << 32);
  wire::Reader r32(big, "varint");
  EXPECT_THROW(r32.varint32(), std::runtime_error);
}

TEST(WirePrimitives, NumbersAreWholeTokens) {
  std::uint64_t u = 0;
  for (const char* bad : {"", "12abc", "-1", " 7", "7 ", "+8", "0x10",
                          "18446744073709551616"}) {
    EXPECT_FALSE(wire::parseU64(bad, u)) << bad;
  }
  EXPECT_TRUE(wire::parseU64("18446744073709551615", u));
  EXPECT_EQ(u, ~std::uint64_t{0});
  std::uint32_t u32 = 0;
  EXPECT_FALSE(wire::parseU32("4294967296", u32));
  double d = 0;
  for (const char* bad : {"", "0.5x", " 1", "+1", "1e999", "--1"}) {
    EXPECT_FALSE(wire::parseDouble(bad, d)) << bad;
  }
  for (double v : {0.0, -0.5, 0.1, 1e-300, 0.123456789012345678}) {
    ASSERT_TRUE(wire::parseDouble(wire::formatDouble(v), d));
    EXPECT_EQ(d, v);
  }
  bool b = false;
  EXPECT_FALSE(wire::parseBool("2", b));
  EXPECT_TRUE(wire::parseBool("1", b) && b);
}

TEST(WirePrimitives, HexAndDigests) {
  std::uint64_t v = 0;
  EXPECT_EQ(wire::hex16(0x0123456789abcdefull), "0123456789abcdef");
  EXPECT_TRUE(wire::parseHex16("0123456789ABCDEF", v));
  EXPECT_EQ(v, 0x0123456789abcdefull);
  EXPECT_FALSE(wire::parseHex16("0123456789abcde", v));
  EXPECT_FALSE(wire::parseHex16("0123456789abcdeg", v));
}

TEST(WirePrimitives, EscapesRejectWhatTheEncoderNeverWrites) {
  std::string out;
  EXPECT_FALSE(wire::unescapeField("a\\q", out));
  EXPECT_FALSE(wire::unescapeField("trailing\\", out));
  EXPECT_TRUE(wire::unescapeField("t\\tn\\nr\\rb\\\\", out));
  EXPECT_EQ(out, "t\tn\nr\rb\\");
}

TEST(WirePrimitives, JsonStringsEscapeQuotesBackslashesAndControlBytes) {
  std::string out;
  wire::appendJsonString(out, "a\"b\\c");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\"");

  out.clear();
  wire::appendJsonString(out, std::string("\n\r\t\x01\x1f\0", 6));
  EXPECT_EQ(out, "\"\\n\\r\\t\\u0001\\u001f\\u0000\"");

  // 0x7f and bytes from 0x80 up are not control bytes in JSON: raw.
  out.clear();
  wire::appendJsonString(out, "\x7f\x80\xc3\xa9\xff");
  EXPECT_EQ(out, "\"\x7f\x80\xc3\xa9\xff\"");

  out = "k=";
  wire::appendJsonString(out, "");
  EXPECT_EQ(out, "k=\"\"");
}

TEST(WirePrimitives, NewlineIsTheCommitMarker) {
  wire::Lines l = wire::splitLines("a\n\nb\nto");
  ASSERT_EQ(l.complete.size(), 3u);
  EXPECT_EQ(l.complete[1], "");
  EXPECT_EQ(l.tail, "to");
  // A token the writer never finished is not read.
  wire::Tokens t("end 12\n45");
  std::string_view tok;
  ASSERT_TRUE(t.next(tok));
  EXPECT_EQ(tok, "end");
  ASSERT_TRUE(t.next(tok));
  EXPECT_EQ(tok, "12");
  EXPECT_FALSE(t.next(tok));
}

}  // namespace
}  // namespace mtt
