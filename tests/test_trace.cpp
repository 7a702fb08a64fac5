// Tests for the annotated trace format: recording, round-trips, offline
// feeding, and the annotation fields the paper's benchmark requires.
#include <gtest/gtest.h>

#include <sstream>

#include "rt/harness.hpp"
#include "rt/primitives.hpp"
#include "test_util.hpp"
#include "trace/trace.hpp"

namespace mtt::trace {
namespace {

using rt::LockGuard;
using rt::Mutex;
using rt::Runtime;
using rt::SharedVar;
using rt::Thread;

Trace recordAccount(std::uint64_t seed) {
  auto rt = rt::makeRuntime(RuntimeMode::Controlled);
  TraceRecorder rec(*rt);
  rt->hooks().add(&rec);
  rt::RunOptions o;
  o.seed = seed;
  o.programName = "account-mini";
  rt->run(
      [](Runtime& rr) {
        SharedVar<int> balance(rr, "balance", 0);
        Mutex m(rr, "lock");
        Thread t(rr, "teller", [&] {
          int v = balance.read(site("tr.read", BugMark::Yes));
          balance.write(v + 1, site("tr.write", BugMark::Yes));
        });
        {
          LockGuard g(m, site("tr.lock"));
          balance.write(5, site("tr.main.write"));
        }
        t.join();
      },
      o);
  return rec.takeTrace();
}

TEST(TraceRecorder, CapturesHeaderAndSymbols) {
  Trace t = recordAccount(3);
  EXPECT_EQ(t.programName, "account-mini");
  EXPECT_EQ(t.seed, 3u);
  EXPECT_EQ(t.mode, RuntimeMode::Controlled);
  EXPECT_FALSE(t.events.empty());
  EXPECT_EQ(t.threadName(1), "main");
  EXPECT_EQ(t.threadName(2), "teller");
  // Object symbols carry kind + name.
  bool sawBalance = false, sawLock = false;
  for (const auto& [id, sym] : t.objects) {
    if (sym.name == "balance") {
      sawBalance = true;
      EXPECT_EQ(sym.kind, rt::ObjectKind::Variable);
    }
    if (sym.name == "lock") {
      sawLock = true;
      EXPECT_EQ(sym.kind, rt::ObjectKind::Mutex);
    }
  }
  EXPECT_TRUE(sawBalance);
  EXPECT_TRUE(sawLock);
}

TEST(TraceRecorder, BugAnnotationsSurvive) {
  Trace t = recordAccount(1);
  // "if this location is involved in a bug": the two marked sites.
  std::size_t bugEvents = 0;
  for (const Event& e : t.events) {
    if (e.bugSite == BugMark::Yes) ++bugEvents;
  }
  EXPECT_EQ(bugEvents, 2u);
  bool sawBugSite = false;
  for (const auto& [id, sym] : t.sites) {
    if (sym.tag == "tr.read") {
      sawBugSite = true;
      EXPECT_TRUE(sym.bug);
    }
  }
  EXPECT_TRUE(sawBugSite);
}

TEST(TraceRecorder, EveryRequiredFieldPresent) {
  // The paper enumerates the record fields; check one variable access.
  Trace t = recordAccount(2);
  const Event* acc = nullptr;
  for (const Event& e : t.events) {
    if (e.kind == EventKind::VarWrite && e.thread == 2) acc = &e;
  }
  ASSERT_NE(acc, nullptr);
  EXPECT_NE(acc->thread, kNoThread);              // thread
  EXPECT_NE(acc->object, kNoObject);              // which variable
  EXPECT_NE(acc->syncSite, kNoSite);              // location
  EXPECT_EQ(acc->access, Access::Write);          // read/write
  EXPECT_EQ(acc->bugSite, BugMark::Yes);          // involved in a bug
}

TEST(TraceText, RoundTripPreservesEverything) {
  Trace t = recordAccount(7);
  // A mem::Atomic cell, which the recorded program does not create: every
  // object kind must survive the text form, not only the default one.
  t.objects[1000] = ObjectSym{rt::ObjectKind::Atomic, "counter"};
  std::ostringstream os;
  writeText(t, os);
  std::istringstream is(os.str());
  Trace back = readText(is);
  EXPECT_EQ(back.programName, t.programName);
  EXPECT_EQ(back.seed, t.seed);
  EXPECT_EQ(back.mode, t.mode);
  EXPECT_EQ(back.threads, t.threads);
  ASSERT_EQ(back.events.size(), t.events.size());
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    EXPECT_EQ(back.events[i].seq, t.events[i].seq);
    EXPECT_EQ(back.events[i].thread, t.events[i].thread);
    EXPECT_EQ(back.events[i].kind, t.events[i].kind);
    EXPECT_EQ(back.events[i].object, t.events[i].object);
    EXPECT_EQ(back.events[i].syncSite, t.events[i].syncSite);
    EXPECT_EQ(back.events[i].arg, t.events[i].arg);
    EXPECT_EQ(back.events[i].bugSite, t.events[i].bugSite);
  }
  ASSERT_EQ(back.objects.size(), t.objects.size());
  for (const auto& [id, sym] : t.objects) {
    ASSERT_EQ(back.objects.count(id), 1u) << id;
    EXPECT_EQ(back.objects.at(id).kind, sym.kind) << sym.name;
    EXPECT_EQ(back.objects.at(id).name, sym.name);
  }
  EXPECT_EQ(back.sites.size(), t.sites.size());
}

TEST(TraceBinary, RoundTripPreservesEverything) {
  Trace t = recordAccount(11);
  std::ostringstream os(std::ios::binary);
  writeBinary(t, os);
  std::istringstream is(os.str(), std::ios::binary);
  Trace back = readBinary(is);
  EXPECT_EQ(back.programName, t.programName);
  EXPECT_EQ(back.threads, t.threads);
  ASSERT_EQ(back.events.size(), t.events.size());
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    EXPECT_EQ(back.events[i].kind, t.events[i].kind);
    EXPECT_EQ(back.events[i].object, t.events[i].object);
    EXPECT_EQ(back.events[i].bugSite, t.events[i].bugSite);
  }
  EXPECT_EQ(back.sites.size(), t.sites.size());
}

TEST(TraceText, RejectsGarbage) {
  std::istringstream is("not a trace\n");
  EXPECT_THROW(readText(is), std::runtime_error);
}

TEST(TraceText, RejectsUnknownEventKind) {
  std::istringstream is(
      "MTTTRACE 1\nprogram x\nseed 0\nmode native\nevents 1\n"
      "e 1 1 Bogus 0 0 0 0\nend\n");
  EXPECT_THROW(readText(is), std::runtime_error);
}

TEST(TraceText, RejectsMissingEnd) {
  std::istringstream is("MTTTRACE 1\nprogram x\nseed 0\nmode native\n");
  EXPECT_THROW(readText(is), std::runtime_error);
}

TEST(TraceText, NumbersAreWholeFieldsAndErrorsNameTheFormat) {
  for (const char* bad :
       {"seed 12abc", "seed -1", "thread 2x main", "site 1 2 3 f t",
        "e 1 1 Yield 0 0 0 0 9"}) {
    std::istringstream is(std::string("MTTTRACE 1\n") + bad + "\nend\n");
    try {
      (void)readText(is);
      ADD_FAILURE() << "accepted: " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("text trace: line 2: ", 0), 0u)
          << e.what();
    }
  }
}

TEST(TraceBinary, RejectsBadMagic) {
  std::istringstream is("XXXX", std::ios::binary);
  EXPECT_THROW(readBinary(is), std::runtime_error);
}

TEST(TraceFiles, WriteAndReadBack) {
  Trace t = recordAccount(5);
  std::string txt = "/tmp/mtt_test_trace.txt";
  std::string bin = "/tmp/mtt_test_trace.bin";
  writeTextFile(t, txt);
  writeBinaryFile(t, bin);
  EXPECT_EQ(readTextFile(txt).events.size(), t.events.size());
  EXPECT_EQ(readBinaryFile(bin).events.size(), t.events.size());
}

TEST(TraceBinary, CompactFormatBeatsTextSize) {
  // The v2 varint encoding exists to shrink trace repositories; a recorded
  // run must serialize strictly smaller than its text form.
  Trace t = recordAccount(17);
  std::ostringstream txt, bin;
  writeText(t, txt);
  writeBinary(t, bin);
  EXPECT_LT(bin.str().size(), txt.str().size());
}

TEST(TraceBinary, VarintSurvivesLargeFieldValues) {
  // Hand-built trace with values that need multi-byte varints and exercise
  // the zigzag delta (sequence numbers far apart, then backwards).
  Trace t;
  t.programName = "varint-stress";
  t.seed = 0xDEADBEEFCAFEull;
  t.mode = RuntimeMode::Controlled;
  t.threads[1] = "main";
  std::uint64_t seqs[] = {1, 2, 1u << 20, (1u << 20) + 1, 300, 1u << 14};
  for (std::uint64_t s : seqs) {
    Event e;
    e.seq = s;
    e.thread = 1;
    e.kind = EventKind::VarWrite;
    e.object = 1000000;
    e.arg = 0x7FFFFFFF;
    t.events.push_back(e);
  }
  std::ostringstream os(std::ios::binary);
  writeBinary(t, os);
  std::istringstream is(os.str(), std::ios::binary);
  Trace back = readBinary(is);
  EXPECT_EQ(back.seed, t.seed);
  ASSERT_EQ(back.events.size(), t.events.size());
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    EXPECT_EQ(back.events[i].seq, t.events[i].seq) << i;
    EXPECT_EQ(back.events[i].object, t.events[i].object) << i;
    EXPECT_EQ(back.events[i].arg, t.events[i].arg) << i;
  }
}

TEST(TraceAutoDetect, ReadHandlesBothFormatsFromMagicBytes) {
  Trace t = recordAccount(4);
  std::ostringstream txt, bin;
  writeText(t, txt);
  writeBinary(t, bin);
  std::istringstream txtIs(txt.str());
  std::istringstream binIs(bin.str(), std::ios::binary);
  EXPECT_EQ(read(txtIs).events.size(), t.events.size());
  EXPECT_EQ(read(binIs).events.size(), t.events.size());
}

TEST(TraceAutoDetect, ReadFileIgnoresExtension) {
  // Binary payload under a .txt name and vice versa: detection is from the
  // leading magic, never from the path.
  Trace t = recordAccount(6);
  writeBinaryFile(t, "/tmp/mtt_test_autodetect.txt");
  writeTextFile(t, "/tmp/mtt_test_autodetect.bin");
  EXPECT_EQ(readFile("/tmp/mtt_test_autodetect.txt").events.size(),
            t.events.size());
  EXPECT_EQ(readFile("/tmp/mtt_test_autodetect.bin").events.size(),
            t.events.size());
}

TEST(TraceAutoDetect, RejectsUnknownMagic) {
  std::istringstream is("GARBAGE STREAM\n");
  EXPECT_THROW(read(is), std::runtime_error);
  std::istringstream empty("");
  EXPECT_THROW(read(empty), std::runtime_error);
}

TEST(TraceReaderSurface, ReportsFormatAndFeedsIdentically) {
  Trace t = recordAccount(8);
  std::ostringstream txt, bin;
  writeText(t, txt);
  writeBinary(t, bin);
  std::istringstream txtIs(txt.str());
  std::istringstream binIs(bin.str(), std::ios::binary);
  TraceReader fromText(txtIs);
  TraceReader fromBinary(binIs);
  EXPECT_EQ(fromText.format(), TraceFormat::Text);
  EXPECT_EQ(fromBinary.format(), TraceFormat::Binary);
  // Both recordings replay the same events through a listener.
  testutil::EventCollector a, b;
  fromText.feed(a);
  fromBinary.feed(b);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].seq, b.events()[i].seq);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].thread, b.events()[i].thread);
  }
  EXPECT_EQ(a.info().programName, b.info().programName);
}

TEST(TraceReaderSurface, TakeMovesTheTrace) {
  Trace t = recordAccount(10);
  std::ostringstream bin;
  writeBinary(t, bin);
  std::istringstream is(bin.str(), std::ios::binary);
  TraceReader reader(is);
  Trace taken = reader.take();
  EXPECT_EQ(taken.events.size(), t.events.size());
}

TEST(Trace, SharedVariablesComputed) {
  Trace t = recordAccount(9);
  auto shared = t.sharedVariables();
  // balance is touched by main and teller; it is the only shared variable.
  ASSERT_EQ(shared.size(), 1u);
  EXPECT_EQ(t.objectName(shared[0]), "balance");
}

TEST(Trace, FeedReplaysToListeners) {
  Trace t = recordAccount(13);
  testutil::EventCollector col;
  feed(t, col);
  EXPECT_TRUE(col.started());
  EXPECT_TRUE(col.ended());
  EXPECT_EQ(col.events().size(), t.events.size());
  EXPECT_EQ(col.info().programName, "account-mini");
  EXPECT_EQ(col.info().seed, 13u);
}

TEST(Trace, DeterministicForSameSeed) {
  Trace a = recordAccount(21);
  Trace b = recordAccount(21);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].thread, b.events[i].thread);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
  }
}

TEST(Trace, CountKind) {
  Trace t = recordAccount(2);
  EXPECT_EQ(t.countKind(EventKind::ThreadStart), 2u);
  EXPECT_EQ(t.countKind(EventKind::ThreadFinish), 2u);
  EXPECT_GE(t.countKind(EventKind::VarWrite), 2u);
}

}  // namespace
}  // namespace mtt::trace
