// Tests for mtt::guide — the UCB1 bandit, the Good–Turing stopping rule,
// corpus-seeded schedule mutation, and the properties the guided campaign
// promises: byte-identical replay for any --jobs, the same report whether
// runs execute in threads or in forked workers, and a closed universe never
// declared saturated before it is fully covered.
#include <gtest/gtest.h>

#include <sys/syscall.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <set>

#include "farm/journal.hpp"
#include "fleet/coordinator.hpp"
#include "guide/bandit.hpp"
#include "guide/guide.hpp"
#include "triage/corpus.hpp"
#include "triage/probe.hpp"

namespace mtt::guide {
namespace {

// --- UCB1 ------------------------------------------------------------------

TEST(Ucb1, UntriedArmsFirstInIndexOrder) {
  Ucb1 b(4, 1.0);
  EXPECT_EQ(b.assign(), 0u);
  EXPECT_EQ(b.assign(), 1u);
  EXPECT_EQ(b.assign(), 2u);
  EXPECT_EQ(b.assign(), 3u);
  EXPECT_EQ(b.totalPulls(), 4u);
}

TEST(Ucb1, RewardedArmWinsTheArgmax) {
  Ucb1 b(3, 0.1);  // tiny exploration: exploitation dominates
  for (std::size_t i = 0; i < 3; ++i) b.assign();
  b.reward(0, 0.0);
  b.reward(1, 1.0);
  b.reward(2, 0.0);
  EXPECT_EQ(b.assign(), 1u);
}

TEST(Ucb1, TiesBreakTowardLowestIndex) {
  Ucb1 b(3, 1.0);
  for (std::size_t i = 0; i < 3; ++i) b.assign();
  for (std::size_t i = 0; i < 3; ++i) b.reward(i, 0.0);
  // Identical stats everywhere: the argmax must be arm 0, deterministically.
  EXPECT_EQ(b.assign(), 0u);
}

TEST(Ucb1, ProvisionalPullSpreadsABatch) {
  // Assigning a whole batch before any reward lands must not hammer one
  // arm: the provisional pull raises the arm's n_i, lowering its bonus.
  Ucb1 b(2, 1.0);
  b.assign();
  b.assign();
  b.reward(0, 1.0);
  b.reward(1, 1.0);
  std::size_t first = b.assign();
  std::size_t second = b.assign();
  EXPECT_NE(first, second);
}

TEST(Ucb1, AssignFixedReplaysWithoutConsultingArgmax) {
  Ucb1 live(3, 1.0);
  std::vector<std::size_t> decisions;
  for (int i = 0; i < 6; ++i) decisions.push_back(live.assign());

  Ucb1 replay(3, 1.0);
  for (std::size_t d : decisions) replay.assignFixed(d);
  EXPECT_EQ(replay.totalPulls(), live.totalPulls());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(replay.stats()[i].pulls, live.stats()[i].pulls);
  }
}

// --- Good–Turing unseen mass -----------------------------------------------

TEST(UnseenMass, EverythingUnseenBeforeObservations) {
  UnseenMass u;
  EXPECT_DOUBLE_EQ(u.estimate(), 1.0);
}

TEST(UnseenMass, SingletonsRaiseRepeatsLowerTheEstimate) {
  UnseenMass u;
  u.observe(1);  // task a, first sighting
  u.observe(1);  // task b, first sighting
  EXPECT_DOUBLE_EQ(u.estimate(), 1.0);  // f1=2, n=2
  u.observe(2);  // task a again: leaves the seen-once class
  EXPECT_DOUBLE_EQ(u.estimate(), 1.0 / 3.0);  // f1=1, n=3
  u.observe(3);  // task a a third time: f1 unchanged
  EXPECT_DOUBLE_EQ(u.estimate(), 0.25);
  u.observe(2);  // task b repeats: no singletons left
  EXPECT_DOUBLE_EQ(u.estimate(), 0.0);
}

// --- schedule mutation -----------------------------------------------------

TEST(MutatedReplay, PrefixLengthIsAPureFunctionOfTheSeed) {
  auto witness = std::make_shared<rt::Schedule>(
      rt::Schedule::fromThreads({0, 1, 0, 1, 1, 0, 0, 1}));
  MutatedReplayPolicy a(witness), b(witness);
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    a.onRunStart(seed);
    b.onRunStart(seed);
    EXPECT_EQ(a.prefixLength(), b.prefixLength()) << "seed " << seed;
    EXPECT_LE(a.prefixLength(), witness->decisions.size());
  }
}

TEST(MutatedReplay, SeedsSpreadAcrossPrefixLengths) {
  auto witness = std::make_shared<rt::Schedule>();
  witness->decisions.assign(16, rt::Decision::thread(0));
  MutatedReplayPolicy p(witness);
  std::set<std::size_t> lengths;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    p.onRunStart(seed);
    lengths.insert(p.prefixLength());
  }
  // The mutation knob is the prefix length; a degenerate distribution
  // would collapse every run of the arm onto one schedule neighborhood.
  EXPECT_GE(lengths.size(), 4u);
}

TEST(MutatedReplay, ReplaysWitnessThenAbandonsOnDivergence) {
  auto witness = std::make_shared<rt::Schedule>(
      rt::Schedule::fromThreads({2, 2, 2, 2}));
  MutatedReplayPolicy p(witness);
  // Find a seed with a non-empty prefix.
  std::uint64_t seed = 0;
  for (;; ++seed) {
    p.onRunStart(seed);
    if (p.prefixLength() >= 2) break;
    ASSERT_LT(seed, 1000u);
  }
  ThreadId enabledWith2[] = {1, 2, 3};
  rt::PickContext ctx;
  ctx.enabled = enabledWith2;
  EXPECT_EQ(p.pick(ctx), 2u);  // follows the witness
  ThreadId without2[] = {0, 1};
  ctx.enabled = without2;
  ThreadId t = p.pick(ctx);  // witness wants 2: diverge, free-run
  EXPECT_TRUE(t == 0u || t == 1u);
}

// --- arms ------------------------------------------------------------------

TEST(Arms, CrossProductOfHeuristicsAndStrengths) {
  experiment::RunSpec base;
  base.programName = "account";
  GuideOptions o;
  o.heuristics = {"yield", "sleep"};
  o.strengths = {0.1, 0.5};
  auto arms = buildArms(base, o);
  ASSERT_EQ(arms.size(), 4u);
  EXPECT_EQ(arms[0].label(), "yield@0.1");
  EXPECT_EQ(arms[1].label(), "yield@0.5");
  EXPECT_EQ(arms[2].label(), "sleep@0.1");
  EXPECT_EQ(arms[3].label(), "sleep@0.5");
}

TEST(Arms, PolicyDimensionMultipliesTheArmSet) {
  experiment::RunSpec base;
  base.programName = "account";
  GuideOptions o;
  o.heuristics = {"yield"};
  o.strengths = {0.25};
  o.policies = {"", "pct:d=3", "pos"};
  auto arms = buildArms(base, o);
  ASSERT_EQ(arms.size(), 3u);
  // "" keeps the base policy and the historical (unprefixed) label; the
  // policy-carrying arms prepend "policy/" as one token.
  EXPECT_EQ(arms[0].label(), "yield@0.25");
  EXPECT_EQ(arms[1].label(), "pct:d=3/yield@0.25");
  EXPECT_EQ(arms[2].label(), "pos/yield@0.25");
}

TEST(Arms, ArmSpecAndPolicySubstituteThePolicy) {
  experiment::RunSpec base;
  base.programName = "account";
  base.tool.policy = "rr";
  Arm a;
  a.noise = "yield";
  a.policy = "pos";
  experiment::RunSpec spec = armSpec(base, a);
  EXPECT_EQ(spec.tool.policy, "pos");
  EXPECT_NE(dynamic_cast<rt::POSPolicy*>(makeArmPolicy(a, "rr").get()),
            nullptr);
  Arm plain;
  plain.noise = "yield";
  experiment::RunSpec unchanged = armSpec(base, plain);
  EXPECT_EQ(unchanged.tool.policy, "rr");
  EXPECT_NE(
      dynamic_cast<rt::RoundRobinPolicy*>(makeArmPolicy(plain, "rr").get()),
      nullptr);
}

TEST(Guided, MalformedPolicyArmSpecFailsFast) {
  experiment::RunSpec base;
  base.programName = "account";
  GuideOptions o;
  o.budget = 4;
  o.policies = {"pct:d=oops"};
  EXPECT_THROW(runGuided(base, o), std::runtime_error);
}

TEST(Arms, ArmSpecSubstitutesNoiseAndStrength) {
  experiment::RunSpec base;
  base.programName = "account";
  base.tool.policy = "random";
  base.tool.coverage = "switch-pair";
  Arm a;
  a.noise = "mixed";
  a.strength = 0.5;
  experiment::RunSpec spec = armSpec(base, a);
  EXPECT_EQ(spec.tool.noiseName, "mixed");
  EXPECT_DOUBLE_EQ(spec.tool.noiseOpts.strength, 0.5);
  EXPECT_EQ(spec.tool.coverage, "switch-pair");  // base settings preserved
  EXPECT_FALSE(spec.policyFactory);              // no witness, no factory
}

TEST(Arms, WitnessArmInstallsMutationPolicyFactory) {
  experiment::RunSpec base;
  base.programName = "account";
  Arm a;
  a.noise = "none";
  a.mutationFingerprint = "cafe";
  a.witness = std::make_shared<rt::Schedule>();
  EXPECT_EQ(a.label(), "none@0.25~cafe");
  experiment::RunSpec spec = armSpec(base, a);
  ASSERT_TRUE(spec.policyFactory);
  auto p = spec.policyFactory();
  EXPECT_NE(dynamic_cast<MutatedReplayPolicy*>(p.get()), nullptr);
}

// --- failure fingerprints --------------------------------------------------

TEST(Fingerprint, CleanAndBudgetArtifactsAreEmpty) {
  experiment::RunObservation o;
  o.status = "completed";
  EXPECT_EQ(observationFingerprint(o), "");
  o.status = "step-limit";
  EXPECT_EQ(observationFingerprint(o), "");
  o.status = "infra-error";
  EXPECT_EQ(observationFingerprint(o), "");
}

TEST(Fingerprint, FailuresFingerprintByStatusAndMessage) {
  experiment::RunObservation a;
  a.status = "deadlock";
  a.failureMessage = "deadlock: T1 waits for m held by T2";
  experiment::RunObservation b = a;
  b.failureMessage = "deadlock: T1 waits for m held by T3";
  EXPECT_NE(observationFingerprint(a), "");
  EXPECT_EQ(observationFingerprint(a).size(), 16u);
  // normalizeTokens folds thread ids, so the two messages coincide...
  EXPECT_EQ(observationFingerprint(a), observationFingerprint(b));
  // ...but a different status never does.
  experiment::RunObservation c = a;
  c.status = "assert-failed";
  EXPECT_NE(observationFingerprint(a), observationFingerprint(c));
}

TEST(Fingerprint, OracleVerdictDistinguishesManifestedRuns) {
  experiment::RunObservation a;
  a.status = "completed";
  a.manifested = true;
  a.outcome = "balance=15 expected=20";
  EXPECT_NE(observationFingerprint(a), "");
  experiment::RunObservation b = a;
  b.manifested = false;
  EXPECT_EQ(observationFingerprint(b), "");
}

// --- guided campaign properties --------------------------------------------

// The "runs: k/budget (+n from journal)" line legitimately differs between
// an original campaign and its replay/resumption (clamped budget, resume
// annotation); everything else must reproduce byte-for-byte.
std::string withoutRunsLine(std::string report) {
  std::size_t at = report.find("\nruns: ");
  if (at == std::string::npos) return report;
  std::size_t end = report.find('\n', at + 1);
  report.erase(at, end == std::string::npos ? std::string::npos : end - at);
  return report;
}

GuideOptions smallCampaign() {
  GuideOptions o;
  o.heuristics = {"yield", "mixed"};
  o.strengths = {0.25};
  o.budget = 14;
  o.farm.jobs = 1;
  return o;
}

experiment::RunSpec accountSpec() {
  experiment::RunSpec base;
  base.programName = "account";
  base.tool.policy = "random";
  base.tool.coverage = "switch-pair";
  base.seedBase = 7;
  return base;
}

TEST(Guided, ReplayIsByteIdenticalForAnyJobsValue) {
  std::string log = ::testing::TempDir() + "guide_replay.arms";
  std::filesystem::remove(log);

  GuideOptions live = smallCampaign();
  live.decisionLogPath = log;
  GuideResult g1 = runGuided(accountSpec(), live);
  ASSERT_EQ(g1.runs(), live.budget);

  for (std::size_t jobs : {1u, 3u}) {
    GuideOptions re = smallCampaign();
    re.replayLogPath = log;
    re.farm.jobs = jobs;
    GuideResult g2 = runGuided(accountSpec(), re);
    // The timing-free report is the contract: identical bytes.
    EXPECT_EQ(guideReport(g1, false), guideReport(g2, false))
        << "jobs=" << jobs;
    ASSERT_EQ(g2.runs(), g1.runs());
    for (std::size_t i = 0; i < g1.records.size(); ++i) {
      EXPECT_EQ(g1.records[i].seed, g2.records[i].seed);
      EXPECT_EQ(g1.records[i].status, g2.records[i].status);
      EXPECT_EQ(g1.records[i].coverage, g2.records[i].coverage);
    }
    EXPECT_EQ(g2.decisionLogPath, "");  // replay writes no log
  }
}

TEST(Guided, IsolatedCampaignForksItsWorkersOnce) {
  // Under WorkerModel::Process the batches run on one local fleet: --jobs
  // workers forked at the first batch and reused by all twelve, and the
  // folded campaign is the thread model's, byte for byte.
  if (!farm::detail::processIsolationSupported()) GTEST_SKIP();
  GuideOptions threads = smallCampaign();
  threads.budget = 24;
  threads.farm.jobs = 2;
  GuideOptions isolated = threads;
  isolated.farm.model = farm::WorkerModel::Process;

  GuideResult t = runGuided(accountSpec(), threads);
  GuideResult p = runGuided(accountSpec(), isolated);
  EXPECT_EQ(fleet::lastFleetCounters().workersConnected, 2u);
  ASSERT_EQ(p.runs(), 24u);
  EXPECT_EQ(guideReport(t, false), guideReport(p, false));
}

// A program whose body records the OS thread it runs on.  Managed threads
// are fibers on the thread that called run(), so that is the worker's.
std::mutex g_tidMu;
std::set<long> g_tids;

long osThreadId() { return ::syscall(SYS_gettid); }

class TidProbe final : public suite::Program {
 public:
  std::string name() const override { return "guide_tid_probe"; }
  std::string description() const override {
    return "records the OS thread of each run";
  }
  void body(rt::Runtime&) override {
    std::lock_guard<std::mutex> lk(g_tidMu);
    g_tids.insert(osThreadId());
  }
};

std::set<long> tidsOfGuidedCampaign(std::size_t jobs, std::uint64_t budget) {
  suite::ProgramRegistry::instance().add(
      "guide_tid_probe", [] { return std::make_unique<TidProbe>(); });
  {
    std::lock_guard<std::mutex> lk(g_tidMu);
    g_tids.clear();
  }
  experiment::RunSpec base = accountSpec();
  base.programName = "guide_tid_probe";
  GuideOptions o = smallCampaign();
  o.budget = budget;
  o.farm.jobs = jobs;
  EXPECT_EQ(runGuided(base, o).runs(), budget);
  std::lock_guard<std::mutex> lk(g_tidMu);
  return g_tids;
}

TEST(Guided, InProcessCampaignStartsItsWorkersOnce) {
  // One worker set serves every batch: at --jobs 1 each run executes on the
  // calling thread, and at --jobs 3 the campaign sees at most three threads
  // however many runs it has.
  EXPECT_EQ(tidsOfGuidedCampaign(1, 200), std::set<long>{osThreadId()});
  EXPECT_LE(tidsOfGuidedCampaign(3, 200).size(), 3u);
  EXPECT_LE(tidsOfGuidedCampaign(3, 400).size(), 3u);
}

TEST(Guided, IsolatedWorkersRunMutationArmsFromTheCorpus) {
  // Witness schedules never cross the wire: forked workers inherit them.
  // The mutation arm shares its noise and strength with a plain arm, so a
  // worker must tell the two apart from the lease alone.
  if (!farm::detail::processIsolationSupported()) GTEST_SKIP();
  const std::string dir = ::testing::TempDir() + "guide_isolated_corpus";
  std::filesystem::remove_all(dir);
  triage::Corpus corpus(dir);
  for (std::uint64_t seed = 0; seed < 64 && corpus.entries().empty(); ++seed) {
    triage::ReplayToolConfig cfg;
    cfg.noiseName = "mixed";
    cfg.seed = seed;
    triage::ProbeResult r = triage::recordRun("account", "random", cfg);
    if (!r.signature.failure()) continue;
    replay::Scenario sc;
    sc.program = "account";
    sc.seed = seed;
    sc.noise = cfg.noiseName;
    sc.strength = cfg.strength;
    sc.schedule = r.recorded;
    corpus.insert(sc, r.signature, true, false, 1);
  }
  ASSERT_EQ(corpus.entries().size(), 1u);

  GuideOptions threads = smallCampaign();
  threads.heuristics = {"mixed"};
  threads.strengths = {0.25};
  threads.corpusDir = dir;
  threads.budget = 20;
  threads.farm.jobs = 2;
  GuideOptions isolated = threads;
  isolated.farm.model = farm::WorkerModel::Process;

  GuideResult t = runGuided(accountSpec(), threads);
  GuideResult p = runGuided(accountSpec(), isolated);
  ASSERT_EQ(t.arms.size(), 2u);
  EXPECT_FALSE(t.arms[1].arm.mutationFingerprint.empty());
  EXPECT_GT(p.arms[1].stats.pulls, 0u);
  EXPECT_EQ(guideReport(t, false), guideReport(p, false));
  std::filesystem::remove_all(dir);
}

TEST(Guided, PolicyArmedReplayIsByteIdenticalForAnyJobsValue) {
  // The policy arm dimension must not weaken the determinism contract: a
  // recorded campaign over policy x strength arms replays byte-identically
  // for any --jobs value.
  std::string log = ::testing::TempDir() + "guide_policy_replay.arms";
  std::filesystem::remove(log);

  GuideOptions live = smallCampaign();
  live.heuristics = {"yield"};
  live.policies = {"", "pct:d=2", "pos"};
  live.decisionLogPath = log;
  GuideResult g1 = runGuided(accountSpec(), live);
  ASSERT_EQ(g1.runs(), live.budget);
  ASSERT_EQ(g1.arms.size(), 3u);

  for (std::size_t jobs : {1u, 3u}) {
    GuideOptions re = smallCampaign();
    re.heuristics = {"yield"};
    re.policies = {"", "pct:d=2", "pos"};
    re.replayLogPath = log;
    re.farm.jobs = jobs;
    GuideResult g2 = runGuided(accountSpec(), re);
    EXPECT_EQ(guideReport(g1, false), guideReport(g2, false))
        << "jobs=" << jobs;
    ASSERT_EQ(g2.runs(), g1.runs());
    for (std::size_t i = 0; i < g1.records.size(); ++i) {
      EXPECT_EQ(g1.records[i].seed, g2.records[i].seed);
      EXPECT_EQ(g1.records[i].status, g2.records[i].status);
      EXPECT_EQ(g1.records[i].coverage, g2.records[i].coverage);
    }
  }
  std::filesystem::remove(log);
}

TEST(Guided, ReplayOfAnEarlyStoppedLogClampsTheBudget) {
  std::string log = ::testing::TempDir() + "guide_clamp.arms";
  std::filesystem::remove(log);

  GuideOptions live = smallCampaign();
  live.decisionLogPath = log;
  live.stopOnFirstFind = true;
  GuideResult g1 = runGuided(accountSpec(), live);
  ASSERT_TRUE(g1.found);
  ASSERT_LT(g1.runs(), live.budget);

  GuideOptions re = smallCampaign();
  re.replayLogPath = log;
  re.stopOnFirstFind = true;
  GuideResult g2 = runGuided(accountSpec(), re);
  EXPECT_EQ(withoutRunsLine(guideReport(g1, false)),
            withoutRunsLine(guideReport(g2, false)));
  EXPECT_EQ(g2.runs(), g1.runs());
  EXPECT_EQ(g2.firstFindSeed, g1.firstFindSeed);
  EXPECT_EQ(g2.firstFindFingerprint, g1.firstFindFingerprint);
}

TEST(Guided, ClosedUniverseNeverSaturatesBeforeFullCoverage) {
  // The saturation property: a declared universe stops early ONLY once
  // every feasible task is covered — quiet tails are not enough.
  experiment::RunSpec base;
  base.programName = "account";
  base.tool.policy = "random";
  base.tool.coverage = "var-contention";
  base.tool.coverageClosedUniverse = true;
  base.seedBase = 1;

  GuideOptions o;
  o.heuristics = {"yield"};
  o.strengths = {0.25};
  o.budget = 60;
  o.saturate = true;
  o.quietRuns = 1;           // aggressively quiet...
  o.unseenMassThreshold = 1.0;  // ...and a threshold met immediately:
  o.farm.jobs = 1;           // only the closed-universe rule may stop it
  GuideResult g = runGuided(base, o);
  ASSERT_TRUE(g.coverage.closed);
  if (g.saturated) {
    EXPECT_TRUE(g.coverage.complete())
        << "saturated at run " << g.saturatedAtRun << " with "
        << g.coverage.coveredCount() << "/" << g.coverage.taskCount();
  } else {
    EXPECT_EQ(g.runs(), o.budget);
  }
}

TEST(Guided, JournaledCampaignResumesToTheSameReport) {
  std::string dir = ::testing::TempDir();
  std::string journal = dir + "guide_resume.journal";
  std::filesystem::remove(journal);
  std::filesystem::remove(journal + ".arms");

  GuideOptions full = smallCampaign();
  full.farm.journalPath = journal;
  GuideResult g1 = runGuided(accountSpec(), full);
  ASSERT_EQ(g1.runs(), full.budget);
  ASSERT_EQ(g1.resumed, 0u);

  // Simulate a crash after 5 runs: rewrite the journal with a prefix.
  farm::JournalData jd = farm::loadJournal(journal);
  ASSERT_EQ(jd.records.size(), full.budget);
  jd.records.resize(5);
  farm::rewriteJournal(journal, jd.configDigest, jd.total, jd.records);

  GuideOptions again = smallCampaign();
  again.farm.journalPath = journal;
  again.farm.resume = true;
  GuideResult g2 = runGuided(accountSpec(), again);
  EXPECT_EQ(g2.resumed, 5u);
  EXPECT_EQ(g2.runs(), g1.runs());
  EXPECT_EQ(withoutRunsLine(guideReport(g1, false)),
            withoutRunsLine(guideReport(g2, false)));
}

TEST(Guided, ResumeRejectsAForeignJournal) {
  std::string dir = ::testing::TempDir();
  std::string journal = dir + "guide_foreign.journal";
  std::filesystem::remove(journal);
  std::filesystem::remove(journal + ".arms");

  GuideOptions full = smallCampaign();
  full.budget = 4;
  full.farm.journalPath = journal;
  runGuided(accountSpec(), full);

  GuideOptions other = smallCampaign();
  other.budget = 4;
  other.heuristics = {"sleep"};  // different arm set => different digest
  other.farm.journalPath = journal;
  other.farm.resume = true;
  EXPECT_THROW(runGuided(accountSpec(), other), std::runtime_error);
}

TEST(Guided, DecisionLogRoundTripsThroughDisk) {
  std::string log = ::testing::TempDir() + "guide_log_roundtrip.arms";
  std::filesystem::remove(log);
  GuideOptions live = smallCampaign();
  live.budget = 6;
  live.decisionLogPath = log;
  GuideResult g = runGuided(accountSpec(), live);
  EXPECT_EQ(g.decisionLogPath, log);

  std::ifstream in(log);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "MTTGUIDE 1");
  std::size_t armLines = 0, assignments = 0;
  while (std::getline(in, line)) {
    if (line.rfind("arm ", 0) == 0) ++armLines;
    if (line.rfind("A ", 0) == 0) ++assignments;
  }
  EXPECT_EQ(armLines, 2u);       // yield@0.25, mixed@0.25
  EXPECT_EQ(assignments, 6u);    // one per budgeted run
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(Guided, TornDecisionLogTailIsDroppedNotMisread) {
  // A crash mid-append leaves a final line without its '\n'.  Cut from
  // "A 12 1 19" to "A 12 1 1", it still looks like an assignment; only the
  // missing newline says it is torn.  Every cut must load a prefix of the
  // recorded assignments with identical arms and seeds.
  std::string log = ::testing::TempDir() + "guide_torn.arms";
  std::filesystem::remove(log);
  GuideOptions live = smallCampaign();
  live.budget = 24;  // seeds 7..30: two digits, so a cut can shorten one
  live.decisionLogPath = log;
  GuideResult g = runGuided(accountSpec(), live);
  ASSERT_EQ(g.runs(), 24u);
  const std::string whole = slurp(log);
  const DecisionLog full = parseDecisionLog(whole, log);
  ASSERT_EQ(full.assignments.size(), 24u);
  ASSERT_FALSE(full.tornTail);

  // The header is written atomically: a cut inside it loads as an empty,
  // torn log.
  const std::size_t headerEnd = whole.find("\nA ") + 1;
  for (std::size_t n = 0; n <= whole.size(); ++n) {
    DecisionLog cut = parseDecisionLog(whole.substr(0, n), log);
    EXPECT_EQ(cut.tornTail, n < headerEnd || whole[n - 1] != '\n')
        << "cut " << n;
    ASSERT_LE(cut.assignments.size(), full.assignments.size());
    std::size_t i = 0;
    for (const auto& [idx, as] : cut.assignments) {
      EXPECT_EQ(idx, i) << "cut " << n;
      EXPECT_EQ(as, full.assignments.at(i)) << "cut " << n << " run " << i;
      ++i;
    }
  }

  // Replaying the log cut inside run 12's line runs exactly runs 0..11, on
  // their recorded seeds.
  const std::size_t line12 = whole.find("\nA 12 ");
  ASSERT_NE(line12, std::string::npos);
  const std::size_t cutAt = whole.find('\n', line12 + 1) - 1;
  std::ofstream(log, std::ios::binary | std::ios::trunc)
      << whole.substr(0, cutAt);
  GuideOptions re = smallCampaign();
  re.budget = 24;
  re.replayLogPath = log;
  GuideResult r = runGuided(accountSpec(), re);
  ASSERT_EQ(r.runs(), 12u);
  for (std::size_t i = 0; i < r.records.size(); ++i) {
    EXPECT_EQ(r.records[i].seed, g.records[i].seed) << "run " << i;
  }
}

TEST(Guided, JsonlStreamCarriesGlobalRunIndices) {
  // Batches run as farm campaigns over batch-local indices; the stream
  // must still name every record by its campaign-global run index.
  for (farm::WorkerModel model :
       {farm::WorkerModel::Thread, farm::WorkerModel::Process}) {
    if (model == farm::WorkerModel::Process &&
        !farm::detail::processIsolationSupported()) {
      continue;
    }
    const std::string path = ::testing::TempDir() + "guide_global.jsonl";
    std::filesystem::remove(path);
    GuideOptions o = smallCampaign();
    o.budget = 6;
    o.farm.jobs = 2;
    o.farm.model = model;
    o.farm.jsonlPath = path;
    const experiment::RunSpec base = accountSpec();
    ASSERT_EQ(runGuided(base, o).runs(), 6u);

    auto number = [](const std::string& line, const std::string& key) {
      const std::size_t at = line.find("\"" + key + "\":");
      EXPECT_NE(at, std::string::npos) << line;
      return std::stoull(line.substr(at + key.size() + 3));
    };
    std::ifstream in(path);
    std::multiset<std::uint64_t> runs;
    for (std::string line; std::getline(in, line);) {
      const std::uint64_t run = number(line, "run");
      runs.insert(run);
      EXPECT_EQ(number(line, "seed"), base.seedBase + run) << line;
    }
    EXPECT_EQ(runs, (std::multiset<std::uint64_t>{0, 1, 2, 3, 4, 5}))
        << farm::to_string(model);
  }
}

TEST(Guided, TargetFingerprintsStopTheCampaign) {
  // First discover a fingerprint, then require it as the target: the
  // second campaign must stop as soon as it reappears.
  GuideOptions scout = smallCampaign();
  scout.budget = 30;
  GuideResult g1 = runGuided(accountSpec(), scout);
  ASSERT_TRUE(g1.found);

  GuideOptions hunt = smallCampaign();
  hunt.budget = 30;
  hunt.targetFingerprints = {g1.firstFindFingerprint};
  GuideResult g2 = runGuided(accountSpec(), hunt);
  EXPECT_TRUE(g2.targetReached);
  EXPECT_LE(g2.runs(), g1.firstFindRun + 1);
}

}  // namespace
}  // namespace mtt::guide
