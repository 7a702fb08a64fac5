// Tests for mtt::triage — failure fingerprinting, the scenario corpus, the
// replay probes, and farm-parallel schedule minimization — plus the hardened
// scenario (de)serialization the subsystem depends on.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "replay/replay.hpp"
#include "triage/corpus.hpp"
#include "triage/postmortem.hpp"
#include "triage/probe.hpp"
#include "triage/shrink.hpp"
#include "triage/signature.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define MTT_TEST_HAS_FORK 1
#else
#define MTT_TEST_HAS_FORK 0
#endif

namespace mtt::triage {
namespace {

namespace fs = std::filesystem;

fs::path freshDir(const std::string& name) {
  fs::path d = fs::path(::testing::TempDir()) / name;
  fs::remove_all(d);
  fs::create_directories(d);
  return d;
}

std::string slurp(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), {});
}

/// Hunts a failing seed for `program` under mixed noise at full strength
/// (the configuration that leaves the minimizer plenty of headroom) and
/// packages it as a saved-scenario would.
replay::Scenario huntFailure(const std::string& program,
                             FailureSignature* sigOut = nullptr) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    ReplayToolConfig cfg;
    cfg.noiseName = "mixed";
    cfg.strength = 1.0;
    cfg.seed = seed;
    ProbeResult r = recordRun(program, "random", cfg);
    if (!r.signature.failure()) continue;
    replay::Scenario s;
    s.program = program;
    s.seed = seed;
    s.policy = "random";
    s.noise = cfg.noiseName;
    s.strength = cfg.strength;
    s.schedule = r.recorded;
    if (sigOut != nullptr) *sigOut = r.signature;
    return s;
  }
  throw std::runtime_error("no failing seed for " + program + " in 64 tries");
}

// Hunts and shrinks are the slow part; share one scenario / one shrink per
// program across the tests that only inspect the result.
const replay::Scenario& accountScenario() {
  static const replay::Scenario s = huntFailure("account");
  return s;
}

const replay::Scenario& philosophersScenario() {
  static const replay::Scenario s = huntFailure("philosophers_deadlock");
  return s;
}

const ShrinkResult& accountShrunk() {
  static const ShrinkResult r = shrinkScenario(accountScenario(), {});
  return r;
}

// --- failure signatures -----------------------------------------------------

TEST(Signature, NormalizeTokensCollapsesDigitRuns) {
  EXPECT_EQ(normalizeTokens("philosopher2 waits fork0"),
            "philosopher# waits fork#");
  EXPECT_EQ(normalizeTokens("balance=1730 expected=2000"),
            "balance=# expected=#");
  EXPECT_EQ(normalizeTokens("no digits here"), "no digits here");
  EXPECT_EQ(normalizeTokens("123"), "#");
  EXPECT_EQ(normalizeTokens(""), "");
}

TEST(Signature, KindNamesRoundTrip) {
  for (FailureKind k : {FailureKind::None, FailureKind::Assert,
                        FailureKind::Oracle, FailureKind::Deadlock,
                        FailureKind::StepLimit}) {
    FailureKind back{};
    ASSERT_TRUE(failure_kind_from_string(to_string(k), back));
    EXPECT_EQ(back, k);
  }
  FailureKind out{};
  EXPECT_FALSE(failure_kind_from_string("bogus", out));
}

TEST(Signature, FingerprintIsAFunctionOfCanonicalForm) {
  FailureSignature a;
  a.kind = FailureKind::Deadlock;
  a.bugSites = {"dine.deadlock"};
  a.shape = {"philosopher# waits fork#"};
  FailureSignature b = a;
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.fingerprint().size(), 16u);

  b.shape = {"philosopher# waits spoon#"};
  EXPECT_NE(a, b);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.canonical(), b.canonical());
  EXPECT_NE(a.canonical().find("deadlock"), std::string::npos);
}

TEST(Signature, StableAcrossSeedsForTheSameRootCause) {
  // Different seeds deadlock the dining philosophers with different thread /
  // fork indices; digit normalization must bucket them together.
  std::set<std::string> fingerprints;
  int found = 0;
  for (std::uint64_t seed = 0; seed < 64 && found < 3; ++seed) {
    ReplayToolConfig cfg;
    cfg.noiseName = "mixed";
    cfg.strength = 1.0;
    cfg.seed = seed;
    ProbeResult r = recordRun("philosophers_deadlock", "random", cfg);
    if (r.signature.kind != FailureKind::Deadlock) continue;
    ++found;
    fingerprints.insert(r.signature.fingerprint());
  }
  ASSERT_GE(found, 2);
  EXPECT_EQ(fingerprints.size(), 1u);
}

TEST(Signature, DistinguishesPrograms) {
  FailureSignature acct;
  huntFailure("account", &acct);
  FailureSignature dine;
  huntFailure("philosophers_deadlock", &dine);
  EXPECT_EQ(acct.kind, FailureKind::Oracle);
  EXPECT_EQ(dine.kind, FailureKind::Deadlock);
  EXPECT_NE(acct.fingerprint(), dine.fingerprint());
}

// --- probes -----------------------------------------------------------------

TEST(Probe, ExactReplayReproducesTheRecordedSignature) {
  const replay::Scenario& s = accountScenario();
  ProbeResult r = probeExact(s.program, s.schedule, toolConfigOf(s));
  EXPECT_TRUE(r.exact);
  EXPECT_TRUE(r.signature.failure());
  EXPECT_EQ(r.recorded.decisions, s.schedule.decisions);
  EXPECT_EQ(r.noiseDecisions.size(), r.recorded.decisions.size());
}

TEST(Probe, CandidateRecordingIsExactlyReplayable) {
  // Feed a mangled decision vector: the repair-mode policy must survive and
  // its recording must replay exactly.
  const replay::Scenario& s = accountScenario();
  std::vector<rt::Decision> mangled(s.schedule.decisions.begin(),
                                    s.schedule.decisions.begin() +
                                        s.schedule.decisions.size() / 2);
  ProbeResult cand = probeCandidate(s.program, mangled, toolConfigOf(s));
  ProbeResult again =
      probeExact(s.program, cand.recorded, toolConfigOf(s));
  EXPECT_TRUE(again.exact);
  EXPECT_EQ(again.signature, cand.signature);
  EXPECT_EQ(again.recorded.decisions, cand.recorded.decisions);
}

TEST(Probe, CountPreemptionsDistinguishesFinishFromPreempt) {
  auto count = [](std::initializer_list<ThreadId> threads) {
    return countPreemptions(rt::Schedule::fromThreads(threads).decisions);
  };
  EXPECT_EQ(count({}), 0u);
  EXPECT_EQ(count({1, 1, 1}), 0u);
  // Switch away from a thread that never runs again = it finished.
  EXPECT_EQ(count({1, 1, 2, 2}), 0u);
  // Switch away from a thread that runs again later = preemption.
  EXPECT_EQ(count({1, 2, 1}), 1u);
  EXPECT_EQ(count({1, 2, 1, 2}), 2u);
  EXPECT_EQ(count({1, 1, 2, 2, 1}), 1u);
}

TEST(Probe, CountPreemptionsIgnoresStorePicks) {
  // StorePick decisions belong to the thread scheduled before them; they
  // never count as, or mask, a context switch.
  std::vector<rt::Decision> d = {
      rt::Decision::thread(1), rt::Decision::store(2),
      rt::Decision::thread(2), rt::Decision::store(0),
      rt::Decision::thread(1),
  };
  EXPECT_EQ(countPreemptions(d), 1u);
}

TEST(Probe, UnknownNoiseNameThrows) {
  ReplayToolConfig cfg;
  cfg.noiseName = "zap";
  EXPECT_THROW(recordRun("account", "random", cfg), std::runtime_error);
}

// --- scenario serialization (satellite: hardened loader) --------------------

TEST(ScenarioFormat, V2RoundTripPreservesEveryField) {
  fs::path dir = freshDir("triage_fmt");
  replay::Scenario s;
  s.program = "account";
  s.seed = 42;
  s.policy = "random";
  s.noise = "mixed";
  s.strength = 0.3333333333333333;
  s.schedule = rt::Schedule::fromThreads({1, 2, 1, 3, 3, 2});
  std::string path = (dir / "rt.scenario").string();
  replay::saveScenario(s, path);
  replay::Scenario back = replay::loadScenario(path);
  EXPECT_EQ(back.program, s.program);
  EXPECT_EQ(back.seed, s.seed);
  EXPECT_EQ(back.policy, s.policy);
  EXPECT_EQ(back.noise, s.noise);
  EXPECT_EQ(back.strength, s.strength);  // %.17g round-trips exactly
  EXPECT_EQ(back.schedule.decisions, s.schedule.decisions);
}

TEST(ScenarioFormat, V1FilesStillLoad) {
  fs::path dir = freshDir("triage_fmt_v1");
  rt::Schedule sched = rt::Schedule::fromThreads({2, 1, 2});
  std::string path = (dir / "v1.schedule").string();
  replay::saveSchedule(sched, path);
  replay::Scenario back = replay::loadScenario(path);
  EXPECT_TRUE(back.program.empty());
  EXPECT_EQ(back.noise, "none");
  EXPECT_EQ(back.schedule.decisions, sched.decisions);
}

TEST(ScenarioFormat, CorruptFilesThrowWithDiagnostics) {
  fs::path dir = freshDir("triage_fmt_bad");
  struct Case {
    const char* name;
    const char* content;
    const char* expect;  // substring of the diagnostic
  };
  const Case cases[] = {
      {"magic", "garbage\n", "bad magic"},
      {"version", "MTTSCHED 9\nend\n", "unsupported version"},
      {"header", "MTTSCHED 2\nprogram account\n", "truncated header"},
      {"key", "MTTSCHED 2\nwibble 3\ndecisions 0\nend\n",
       "unknown header key"},
      {"count", "MTTSCHED 2\ndecisions many\n", "malformed decision count"},
      {"bloat", "MTTSCHED 2\ndecisions 99999999999\n", "decision count"},
      {"decisions", "MTTSCHED 2\ndecisions 4\n1 2\n", "truncated decision"},
      {"threadid", "MTTSCHED 2\ndecisions 2\n1 0\nend\n",
       "invalid thread id"},
      {"trailer", "MTTSCHED 2\ndecisions 2\n1 2\n", "missing 'end' trailer"},
  };
  for (const Case& c : cases) {
    std::string path = (dir / (std::string(c.name) + ".scenario")).string();
    {
      std::ofstream f(path, std::ios::binary);
      f << c.content;
    }
    try {
      (void)replay::loadScenario(path);
      FAIL() << c.name << ": expected a throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect), std::string::npos)
          << c.name << " diagnostic was: " << e.what();
    }
  }
  EXPECT_THROW(replay::loadScenario((dir / "missing.scenario").string()),
               std::runtime_error);
}

TEST(ScenarioFormat, EveryTruncationEitherLoadsOrThrows) {
  // Fuzz-ish property: no byte-prefix of a valid scenario may crash the
  // loader or load to a *different* scenario; it must throw or load equal.
  fs::path dir = freshDir("triage_fmt_fuzz");
  replay::Scenario s;
  s.program = "philosophers_deadlock";
  s.seed = 7;
  s.noise = "mixed";
  s.strength = 1.0;
  s.schedule = rt::Schedule::fromThreads({1, 2, 3, 12, 3, 2, 1, 10, 11, 2});
  std::string full = (dir / "full.scenario").string();
  replay::saveScenario(s, full);
  std::string bytes = slurp(full);
  ASSERT_FALSE(bytes.empty());
  std::string prefixPath = (dir / "prefix.scenario").string();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    {
      std::ofstream f(prefixPath, std::ios::binary | std::ios::trunc);
      f.write(bytes.data(), static_cast<std::streamsize>(len));
    }
    try {
      replay::Scenario back = replay::loadScenario(prefixPath);
      EXPECT_EQ(back.schedule.decisions, s.schedule.decisions)
          << "prefix of length " << len << " loaded but differs";
    } catch (const std::runtime_error&) {
      // Expected for most prefixes: a clear diagnostic, never UB.
    }
  }
}

// --- corpus -----------------------------------------------------------------

replay::Scenario syntheticScenario(std::size_t decisions,
                                   std::size_t distinctThreads = 2) {
  replay::Scenario s;
  s.program = "account";
  s.seed = 5;
  for (std::size_t i = 0; i < decisions; ++i) {
    s.schedule.decisions.push_back(
        rt::Decision::thread(static_cast<ThreadId>(1 + i % distinctThreads)));
  }
  return s;
}

FailureSignature syntheticSignature() {
  FailureSignature sig;
  sig.kind = FailureKind::Oracle;
  sig.bugSites = {"account.lost-update"};
  sig.shape = {"balance=#"};
  return sig;
}

TEST(Corpus, InsertDedupKeepsTheSmallestWitness) {
  Corpus corpus(freshDir("triage_corpus_dedup"));
  FailureSignature sig = syntheticSignature();

  InsertResult first = corpus.insert(syntheticScenario(6), sig,
                                     /*replayVerified=*/false,
                                     /*shrunk=*/false, 100);
  EXPECT_TRUE(first.inserted);
  EXPECT_FALSE(first.replaced);
  EXPECT_EQ(first.fingerprint, sig.fingerprint());

  // Smaller witness replaces; discovery time sticks with the bucket.
  InsertResult better = corpus.insert(syntheticScenario(4), sig, true,
                                      /*shrunk=*/true, 200);
  EXPECT_FALSE(better.inserted);
  EXPECT_TRUE(better.replaced);
  auto e = corpus.find("account", sig.fingerprint());
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->decisions, 4u);
  EXPECT_EQ(e->discovered, 100u);
  EXPECT_TRUE(e->replayVerified);
  EXPECT_TRUE(e->shrunk);

  // Larger witness is rejected; the bucket is untouched.
  InsertResult worse = corpus.insert(syntheticScenario(9), sig, true,
                                     /*shrunk=*/false, 300);
  EXPECT_FALSE(worse.inserted);
  EXPECT_FALSE(worse.replaced);
  e = corpus.find("account", sig.fingerprint());
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->decisions, 4u);
  EXPECT_TRUE(e->shrunk);

  // Same size but fewer preemptions also wins the tie-break.
  InsertResult calmer = corpus.insert(syntheticScenario(4, 1), sig, true,
                                      /*shrunk=*/true, 400);
  EXPECT_TRUE(calmer.replaced);
  e = corpus.find("account", sig.fingerprint());
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->preemptions, 0u);
}

TEST(Corpus, RejectsNonFailureSignatures) {
  Corpus corpus(freshDir("triage_corpus_reject"));
  FailureSignature pass;  // kind == None
  EXPECT_THROW(corpus.insert(syntheticScenario(3), pass, false, false, 1),
               std::runtime_error);
}

TEST(Corpus, EntriesAreSortedAndIndexed) {
  fs::path root = freshDir("triage_corpus_sorted");
  Corpus corpus(root);
  FailureSignature a = syntheticSignature();
  FailureSignature b = syntheticSignature();
  b.shape = {"other shape"};
  replay::Scenario sb = syntheticScenario(3);
  sb.program = "bounded_buffer_bug";
  corpus.insert(syntheticScenario(3), a, false, false, 1);
  corpus.insert(sb, b, false, false, 2);

  std::vector<CorpusEntry> all = corpus.entries();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].program, "account");
  EXPECT_EQ(all[1].program, "bounded_buffer_bug");
  EXPECT_TRUE(fs::exists(all[0].scenarioPath));
  EXPECT_TRUE(fs::exists(root / "index.tsv"));
  EXPECT_NE(slurp(root / "index.tsv").find(a.fingerprint()),
            std::string::npos);

  std::vector<CorpusEntry> onlyAccount = corpus.entries("account");
  ASSERT_EQ(onlyAccount.size(), 1u);
  EXPECT_EQ(onlyAccount[0].fingerprint, a.fingerprint());
}

TEST(Corpus, VerifyAndGcCatchCorruptWitnesses) {
  Corpus corpus(freshDir("triage_corpus_verify"));
  replay::Scenario s = accountScenario();
  ProbeResult r = probeExact(s.program, s.schedule, toolConfigOf(s));
  ASSERT_TRUE(r.signature.failure());
  corpus.insert(s, r.signature, true, false, 1);

  VerifyOutcome good = corpus.verify();
  EXPECT_EQ(good.checked, 1u);
  EXPECT_EQ(good.passed, 1u);
  EXPECT_TRUE(good.ok());

  // Corrupt the witness on disk: verify must flag it, gc must remove it.
  fs::path witness = corpus.witnessPath(s.program, r.signature.fingerprint());
  {
    std::ofstream f(witness, std::ios::binary | std::ios::trunc);
    f << "garbage\n";
  }
  VerifyOutcome bad = corpus.verify();
  EXPECT_FALSE(bad.ok());
  ASSERT_EQ(bad.failures.size(), 1u);
  EXPECT_NE(bad.failures[0].find(s.program), std::string::npos);

  EXPECT_EQ(corpus.gc(), 1u);
  EXPECT_TRUE(corpus.entries().empty());
  EXPECT_EQ(corpus.gc(), 0u);
}

// --- shrink -----------------------------------------------------------------

TEST(Shrink, AccountLosesAtLeastHalfItsDecisions) {
  const replay::Scenario& s = accountScenario();
  const ShrinkResult& r = accountShrunk();
  ASSERT_TRUE(r.reproduced);
  EXPECT_TRUE(r.verifiedExact);
  EXPECT_GE(r.removedRatio(), 0.5)
      << r.original.size() << " -> " << r.minimized.schedule.size();
  EXPECT_LT(r.minimized.schedule.size(), s.schedule.size());
  EXPECT_LE(r.minimizedPreemptions, r.originalPreemptions);
  EXPECT_EQ(r.signature.kind, FailureKind::Oracle);
  if (r.noiseStripped) {
    EXPECT_EQ(r.minimized.noise, "none");
  }
}

TEST(Shrink, PhilosophersDeadlockLosesAtLeastHalfItsDecisions) {
  ShrinkResult r = shrinkScenario(philosophersScenario(), {});
  ASSERT_TRUE(r.reproduced);
  EXPECT_TRUE(r.verifiedExact);
  EXPECT_GE(r.removedRatio(), 0.5)
      << r.original.size() << " -> " << r.minimized.schedule.size();
  EXPECT_EQ(r.signature.kind, FailureKind::Deadlock);
}

TEST(Shrink, EvloopScenarioShrinksWithFingerprintPreserved) {
  // Regression for the event-loop runtime: a recorded counterexample from
  // an evloop program (every decision is a tasklet pick) must ddmin like
  // any thread program — same fingerprint, and the dense tasklet churn
  // around the double-release gives the minimizer at least 40% to remove.
  FailureSignature sig;
  replay::Scenario s = huntFailure("evloop_conn_pool", &sig);
  ShrinkResult r = shrinkScenario(s, {});
  ASSERT_TRUE(r.reproduced);
  EXPECT_TRUE(r.verifiedExact);
  EXPECT_EQ(r.signature.fingerprint(), sig.fingerprint());
  EXPECT_EQ(r.signature.kind, FailureKind::Assert);
  EXPECT_GE(r.removedRatio(), 0.40)
      << r.original.size() << " -> " << r.minimized.schedule.size();
}

TEST(Shrink, MinimizedWitnessKeepsTheOriginalSignature) {
  const ShrinkResult& r = accountShrunk();
  ProbeResult back = probeExact(r.minimized.program, r.minimized.schedule,
                                toolConfigOf(r.minimized));
  EXPECT_TRUE(back.exact);
  EXPECT_EQ(back.signature, r.signature);
}

TEST(Shrink, ParallelShrinkMatchesSerialExactly) {
  const ShrinkResult& serial = accountShrunk();
  ShrinkOptions par;
  par.jobs = 4;
  ShrinkResult parallel = shrinkScenario(accountScenario(), par);
  ASSERT_TRUE(parallel.reproduced);
  EXPECT_EQ(parallel.minimized.schedule.decisions,
            serial.minimized.schedule.decisions);
  EXPECT_EQ(parallel.minimized.noise, serial.minimized.noise);
  EXPECT_EQ(parallel.signature, serial.signature);
}

TEST(Shrink, ShrinkIsIdempotent) {
  const ShrinkResult& first = accountShrunk();
  ShrinkResult second = shrinkScenario(first.minimized, {});
  ASSERT_TRUE(second.reproduced);
  EXPECT_TRUE(second.verifiedExact);
  EXPECT_EQ(second.minimized.schedule.decisions,
            first.minimized.schedule.decisions);
  EXPECT_EQ(second.removedRatio(), 0.0);
}

TEST(Shrink, NonReproducingScenarioIsReportedNotShrunk) {
  // A passing run's schedule has nothing to shrink; the result must say so
  // instead of fabricating a witness.
  replay::Scenario s;
  s.program = "account";
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    ReplayToolConfig cfg;
    cfg.seed = seed;
    ProbeResult r = recordRun("account", "rr", cfg);
    if (r.signature.failure()) continue;
    s.seed = seed;
    s.policy = "rr";
    s.schedule = r.recorded;
    break;
  }
  ASSERT_FALSE(s.schedule.decisions.empty());
  ShrinkResult r = shrinkScenario(s, {});
  EXPECT_FALSE(r.reproduced);
  EXPECT_FALSE(r.verifiedExact);
  EXPECT_EQ(r.minimized.schedule.decisions, s.schedule.decisions);
}

TEST(Shrink, RespectsTheValidationBudget) {
  ShrinkOptions so;
  so.maxValidations = 3;  // reproduce + strip eat most of it
  ShrinkResult r = shrinkScenario(accountScenario(), so);
  ASSERT_TRUE(r.reproduced);
  EXPECT_LE(r.validations, so.maxValidations + 2);  // + final verification
}

TEST(Shrink, ValidationCountIsJobsIndependent) {
  // validations counts the probes of the serial scan, so it (and the
  // whole stdout of `mtt shrink`) is the same for any worker count; only
  // `speculative` may move.
  for (const char* program : {"account", "bounded_buffer_bug"}) {
    replay::Scenario s = huntFailure(program);
    ShrinkResult serial = shrinkScenario(s, {});
    EXPECT_EQ(serial.speculative, 0u) << program;
    for (std::size_t jobs : {2u, 4u}) {
      ShrinkOptions so;
      so.jobs = jobs;
      ShrinkResult r = shrinkScenario(s, so);
      EXPECT_EQ(r.validations, serial.validations) << program << " " << jobs;
      EXPECT_EQ(r.rounds, serial.rounds) << program << " " << jobs;
      EXPECT_EQ(r.minimized.schedule.decisions,
                serial.minimized.schedule.decisions)
          << program << " " << jobs;
    }
  }
}

TEST(Shrink, BudgetIsJobsIndependent) {
  // The budget is checked against the serial count, so a budget-cut shrink
  // stops at the same schedule for any worker count.
  ShrinkOptions so;
  so.maxValidations = 30;
  ShrinkResult serial = shrinkScenario(accountScenario(), so);
  so.jobs = 4;
  ShrinkResult parallel = shrinkScenario(accountScenario(), so);
  ASSERT_TRUE(serial.reproduced);
  EXPECT_LE(serial.validations, so.maxValidations + 1);
  EXPECT_EQ(parallel.validations, serial.validations);
  EXPECT_EQ(parallel.minimized.schedule.decisions,
            serial.minimized.schedule.decisions);
}

/// Thread picks by id, store picks as "s<age>", space-separated.
std::string spell(const std::vector<rt::Decision>& ds) {
  std::string out;
  for (const rt::Decision& d : ds) {
    if (!out.empty()) out += ' ';
    if (d.isStore()) out += 's';
    out += std::to_string(d.value);
  }
  return out;
}

TEST(Shrink, GoldenMinimizedWitnesses) {
  // Pinned byte for byte: skipping a candidate whose verdict is already
  // known must never change which candidate wins.  mp_reorder and iriw
  // keep StorePicks.
  struct Golden {
    const char* program;
    const char* decisions;
    const char* fingerprint;
  };
  const Golden golden[] = {
      {"account", "1 1 1 3 3 2 2 2 2 2 2 3 3 3 3 1 1 1 1", "a04a314507fcf923"},
      {"philosophers_deadlock", "1 1 1 1 3 3 4 4 2 2", "b8e5cac92aaaae0c"},
      {"bounded_buffer_bug",
       "1 1 2 1 3 3 1 4 3 3 4 4 4 4 4 4 4 2 2 2 2 2 3 3 3", "7bb9f62e8dc5914f"},
      {"mp_reorder", "1 1 2 2 2 1 3 3 s0 3 s1 3 2 1 1", "d98a7536a47d0bc2"},
      {"iriw",
       "1 1 1 1 1 2 2 3 3 4 5 4 s0 5 s0 5 s1 5 4 s1 4 3 2 1 1 1 1",
       "a2243deaa0c6adb3"},
      {"evloop_conn_pool",
       "1 1 1 1 1 2 2 2 2 2 2 2 2 2 2 2 2 2 2 2 3 2 2 2 2 3 3 3 3 3 3 3 3 3 "
       "3 3 3 3 3 3 4 4 4 4 4 4 4 4 4 4 4 5 5 5 5 5 5 5 5",
       "fe7642525e0e1f94"},
  };
  for (const Golden& g : golden) {
    ShrinkResult r = shrinkScenario(huntFailure(g.program), {});
    ASSERT_TRUE(r.verifiedExact) << g.program;
    EXPECT_EQ(spell(r.minimized.schedule.decisions), g.decisions) << g.program;
    EXPECT_EQ(r.signature.fingerprint(), g.fingerprint) << g.program;
  }
  // No repeat and no winner re-probe: 62 probes (120 if they all ran).
  EXPECT_EQ(accountShrunk().validations, 62u);
}

// --- cross-process corpus locking -------------------------------------------

#if MTT_TEST_HAS_FORK
TEST(CorpusLock, TwoProcessInsertStressKeepsIndexConsistent) {
  fs::path root = freshDir("triage_corpus_lock");
  constexpr int kPerChild = 12;

  // Two child processes hammer the same corpus with distinct buckets.
  // Without the flock around insert(), the concurrent read-merge-rewrite
  // cycles lose entries from index.tsv (both children list the buckets,
  // then the slower rewrite clobbers the faster one's additions).
  auto child = [&root](int id) {
    try {
      Corpus corpus(root);
      for (int i = 0; i < kPerChild; ++i) {
        FailureSignature sig;
        sig.kind = FailureKind::Oracle;
        sig.bugSites = {"stress.site"};
        sig.shape = {"child" + std::to_string(id) + " entry " +
                     std::to_string(i)};
        corpus.insert(syntheticScenario(4 + i % 3), sig, false, false,
                      static_cast<std::uint64_t>(1000 + i));
      }
      ::_exit(0);
    } catch (...) {
      ::_exit(1);
    }
  };
  pid_t a = ::fork();
  ASSERT_GE(a, 0);
  if (a == 0) child(1);
  pid_t b = ::fork();
  ASSERT_GE(b, 0);
  if (b == 0) child(2);
  int statusA = 0, statusB = 0;
  ASSERT_EQ(::waitpid(a, &statusA, 0), a);
  ASSERT_EQ(::waitpid(b, &statusB, 0), b);
  ASSERT_TRUE(WIFEXITED(statusA) && WEXITSTATUS(statusA) == 0);
  ASSERT_TRUE(WIFEXITED(statusB) && WEXITSTATUS(statusB) == 0);

  Corpus corpus(root);
  std::vector<CorpusEntry> all = corpus.entries();
  EXPECT_EQ(all.size(), 2u * kPerChild);

  // index.tsv reflects every bucket and every row is structurally whole.
  std::string index = slurp(root / "index.tsv");
  std::size_t rows = 0;
  std::istringstream in(index);
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    ++rows;
    std::size_t tabs = 0;
    for (char c : line) tabs += c == '\t';
    EXPECT_EQ(tabs, 9u) << line;
  }
  EXPECT_EQ(rows, 2u * kPerChild);
  for (const CorpusEntry& e : all) {
    EXPECT_NE(index.find(e.fingerprint), std::string::npos) << e.fingerprint;
  }
}
#endif  // MTT_TEST_HAS_FORK

// --- postmortem ingestion ---------------------------------------------------

fs::path writeSyntheticPostmortem(const std::string& name,
                                  const std::string& annotations) {
  fs::path p = fs::path(::testing::TempDir()) / name;
  std::ofstream out(p, std::ios::trunc);
  out << "MTTSCHED 2\n"
         "program account\n"
         "seed 3\n"
         "policy random\n"
         "noise none\n"
         "strength 0.25\n"
         "decisions 4\n"
         "1\n2\n1\n2\n"
         "end\n"
      << annotations;
  return p;
}

TEST(Postmortem, LoadSynthesizesCrashSignatureFromAnnotations) {
  fs::path p = writeSyntheticPostmortem("pm_load.scenario",
                                        "postmortem signal 11\n"
                                        "heldlock 7 2\n"
                                        "event VarRead 3 1\n"
                                        "event VarWrite 2 1\n"
                                        "endpostmortem\n");
  PostmortemInfo info = loadPostmortem(p.string(), "crashed");
  EXPECT_EQ(info.signature.kind, FailureKind::Crash);
  EXPECT_EQ(info.signal, 11);
  EXPECT_FALSE(info.truncated);
  EXPECT_EQ(info.scenario.program, "account");
  EXPECT_EQ(info.scenario.schedule.size(), 4u);
  ASSERT_EQ(info.signature.shape.size(), 3u);  // sorted
  EXPECT_EQ(info.signature.shape[0], "heldlock # #");
  EXPECT_EQ(info.signature.shape[1], "signal 11");
  EXPECT_EQ(info.signature.shape[2], "tail: VarRead # # VarWrite # #");
  EXPECT_TRUE(info.signature.failure());
}

TEST(Postmortem, TimeoutStatusSelectsTimeoutKindAndDistinctBucket) {
  fs::path p = writeSyntheticPostmortem("pm_timeout.scenario",
                                        "postmortem signal 0\n"
                                        "endpostmortem\n");
  PostmortemInfo crash = loadPostmortem(p.string(), "crashed");
  PostmortemInfo timeout = loadPostmortem(p.string(), "timeout");
  EXPECT_EQ(crash.signature.kind, FailureKind::Crash);
  EXPECT_EQ(timeout.signature.kind, FailureKind::Timeout);
  EXPECT_NE(crash.signature.fingerprint(), timeout.signature.fingerprint());
}

TEST(Postmortem, IngestFilesAnUnverifiedWitness) {
  fs::path p = writeSyntheticPostmortem("pm_ingest.scenario",
                                        "postmortem signal 6\n"
                                        "truncated\n"
                                        "endpostmortem\n");
  Corpus corpus(freshDir("triage_corpus_pm"));
  InsertResult ins = ingestPostmortem(corpus, p.string(), "crashed", 777);
  EXPECT_TRUE(ins.inserted);
  auto e = corpus.find("account", ins.fingerprint);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->kind, "crash");
  EXPECT_FALSE(e->replayVerified);
  EXPECT_FALSE(e->shrunk);
  EXPECT_EQ(e->discovered, 777u);
  // The filed witness is itself a loadable scenario.
  replay::Scenario sc = replay::loadScenario(e->scenarioPath.string());
  EXPECT_EQ(sc.schedule.size(), 4u);
}

}  // namespace
}  // namespace mtt::triage
