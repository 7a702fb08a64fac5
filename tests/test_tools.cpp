// Integration tests for the mtt command-line driver: every subcommand runs
// as a real subprocess against the built binary (path injected by CMake via
// MTT_CLI_PATH).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>

namespace {

struct CmdResult {
  int exitCode = -1;
  std::string output;
};

CmdResult runCli(const std::string& args) {
  std::string cmd = std::string(MTT_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {};
  CmdResult r;
  std::array<char, 4096> buf{};
  std::size_t n;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    r.output.append(buf.data(), n);
  }
  int status = pclose(pipe);
  r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

TEST(Cli, ListShowsCatalog) {
  CmdResult r = runCli("list");
  EXPECT_EQ(r.exitCode, 0);
  EXPECT_NE(r.output.find("account"), std::string::npos);
  EXPECT_NE(r.output.find("philosophers_deadlock"), std::string::npos);
  EXPECT_NE(r.output.find("control"), std::string::npos);
  EXPECT_NE(r.output.find("buggy"), std::string::npos);
}

TEST(Cli, DescribeShowsBugsAndModel) {
  CmdResult r = runCli("describe account");
  EXPECT_EQ(r.exitCode, 0);
  EXPECT_NE(r.output.find("account.lost-update"), std::string::npos);
  EXPECT_NE(r.output.find("atomicity-violation"), std::string::npos);
  EXPECT_NE(r.output.find("IR model:"), std::string::npos);
}

TEST(Cli, RunReportsVerdict) {
  // Controlled + random at some seed; exit code 1 iff manifested.
  CmdResult r = runCli("run account_sync --seed 3");
  EXPECT_EQ(r.exitCode, 0);
  EXPECT_NE(r.output.find("verdict: pass"), std::string::npos);
}

TEST(Cli, RunDeterministicSchedulerMasksBug) {
  CmdResult r = runCli("run account --policy rr --seed 1");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("verdict: pass"), std::string::npos);
}

TEST(Cli, HuntThenReplayReproduces) {
  std::string scenario = "/tmp/mtt_cli_test.scenario";
  CmdResult hunt = runCli("hunt account --noise mixed --policy rr --out " +
                          scenario + " --seeds 200");
  ASSERT_EQ(hunt.exitCode, 0) << hunt.output;
  ASSERT_NE(hunt.output.find("scenario saved"), std::string::npos);
  // Extract the seed from "bug manifested at seed N".
  auto pos = hunt.output.find("at seed ");
  ASSERT_NE(pos, std::string::npos);
  std::string seed = hunt.output.substr(pos + 8);
  seed = seed.substr(0, seed.find(' '));
  CmdResult rep = runCli("replay account " + scenario + " --seed " + seed +
                         " --noise mixed");
  EXPECT_EQ(rep.exitCode, 0) << rep.output;
  EXPECT_NE(rep.output.find("(exact)"), std::string::npos) << rep.output;
}

TEST(Cli, ParallelHuntReportsTheSerialSeed) {
  // Seeds are handed out in order and a find stops dispatch only above its
  // own seed, so a --jobs 4 hunt reports the serial hunt's seed and saves
  // the same scenario.  "after N runs" depends on timing; it is not compared.
  auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::pair<std::string, std::string> cases[] = {
      {"notify_lost", "18"}, {"bounded_buffer_bug", "11"}};
  for (const auto& [program, seed] : cases) {
    const std::string serialPath =
        ::testing::TempDir() + program + ".j1.scenario";
    const std::string parallelPath =
        ::testing::TempDir() + program + ".j4.scenario";
    CmdResult serial =
        runCli("hunt " + program + " --seeds 500 --out " + serialPath);
    CmdResult parallel = runCli("hunt " + program +
                                " --seeds 500 --jobs 4 --out " + parallelPath);
    ASSERT_EQ(serial.exitCode, 0) << serial.output;
    ASSERT_EQ(parallel.exitCode, 0) << parallel.output;
    const std::string line = "bug manifested at seed " + seed + " ";
    EXPECT_NE(serial.output.find(line), std::string::npos) << serial.output;
    EXPECT_NE(parallel.output.find(line), std::string::npos)
        << parallel.output;
    EXPECT_FALSE(slurp(serialPath).empty());
    EXPECT_EQ(slurp(serialPath), slurp(parallelPath)) << program;
    std::remove(serialPath.c_str());
    std::remove(parallelPath.c_str());
  }
}

TEST(Cli, ExploreFindsDeadlock) {
  CmdResult r = runCli("explore lock_order_inversion --bound 1");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("bug found"), std::string::npos);
  EXPECT_NE(r.output.find("deadlock"), std::string::npos);
}

TEST(Cli, ExploreRejectsExplicitPolicy) {
  // --policy used to be silently ignored by explore; it must exit 2 with a
  // message pointing at the subcommands that do take a policy.
  CmdResult r = runCli("explore account --policy rr");
  EXPECT_EQ(r.exitCode, 2) << r.output;
  EXPECT_NE(r.output.find("accepts no --policy"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("hunt"), std::string::npos);
}

TEST(Cli, MalformedPolicySpecFailsWithGrammar) {
  CmdResult r = runCli("run account --policy pct:d=oops --seed 1");
  EXPECT_EQ(r.exitCode, 2) << r.output;
  EXPECT_NE(r.output.find("grammar"), std::string::npos) << r.output;
  CmdResult unknown = runCli("run account --policy bogus --seed 1");
  EXPECT_EQ(unknown.exitCode, 2) << unknown.output;
  EXPECT_NE(unknown.output.find("valid:"), std::string::npos)
      << unknown.output;
  CmdResult guided = runCli("hunt account --guide --budget 4 --policies pct:d=");
  EXPECT_EQ(guided.exitCode, 2) << guided.output;
  EXPECT_NE(guided.output.find("grammar"), std::string::npos) << guided.output;
}

TEST(Cli, ParameterizedPoliciesRunAndHunt) {
  CmdResult pct = runCli("run account --policy pct:d=2,k=64 --seed 5");
  EXPECT_EQ(pct.exitCode, 0) << pct.output;
  CmdResult pos = runCli("run account --policy pos --seed 5");
  EXPECT_EQ(pos.exitCode, 0) << pos.output;
}

TEST(Cli, ExploreSleepSetsExhaustsWithoutPrunedRuns) {
  // account_sync is clean: DPOR exhausts it without a sleep-blocked run, so
  // no discarded-run note is printed.
  CmdResult r = runCli("explore account_sync --sleep-sets --budget 2000000");
  EXPECT_EQ(r.exitCode, 1) << r.output;  // no bug -> exit 1
  EXPECT_NE(r.output.find("exhausted"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("sleep-blocked"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("pruned"), std::string::npos) << r.output;
}

TEST(Cli, ExploreRejectsBoundWithSleepSets) {
  // Partial-order reduction under a preemption bound is unsound.
  CmdResult r = runCli("explore account --bound 1 --sleep-sets");
  EXPECT_EQ(r.exitCode, 2) << r.output;
  EXPECT_NE(r.output.find("preemption bound"), std::string::npos)
      << r.output;
}

TEST(Cli, TracegenAndAnalyze) {
  CmdResult gen = runCli(
      "tracegen /tmp/mtt_cli_traces --programs account,producer_consumer_sem "
      "--seeds 2 --noise mixed");
  ASSERT_EQ(gen.exitCode, 0) << gen.output;
  EXPECT_NE(gen.output.find("wrote 4 traces"), std::string::npos);
  CmdResult ana = runCli(
      "analyze /tmp/mtt_cli_traces/account.0.trace "
      "/tmp/mtt_cli_traces/producer_consumer_sem.0.trace");
  EXPECT_EQ(ana.exitCode, 0) << ana.output;
  EXPECT_NE(ana.output.find("eraser"), std::string::npos);
  EXPECT_NE(ana.output.find("account.0.trace"), std::string::npos);
}

TEST(Cli, ExperimentPrintsReport) {
  CmdResult r = runCli("experiment account --runs 20 --noise none,mixed");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("manifested"), std::string::npos);
  EXPECT_NE(r.output.find("mixed"), std::string::npos);
}

TEST(Cli, CheckRunsStaticAndModelChecking) {
  CmdResult r = runCli("check philosophers_deadlock");
  EXPECT_EQ(r.exitCode, 1) << r.output;  // bug found -> exit 1
  EXPECT_NE(r.output.find("static deadlock"), std::string::npos);
  EXPECT_NE(r.output.find("counterexample"), std::string::npos);

  CmdResult ok = runCli("check account_sync");
  EXPECT_EQ(ok.exitCode, 0) << ok.output;
  EXPECT_NE(ok.output.find("verified"), std::string::npos);
}

TEST(Cli, BadUsageFails) {
  EXPECT_NE(runCli("").exitCode, 0);
  EXPECT_NE(runCli("frobnicate").exitCode, 0);
  EXPECT_NE(runCli("run no_such_program").exitCode, 0);
}

// --- triage: shrink + corpus ------------------------------------------------

TEST(Cli, HuntShrinkCorpusWorkflow) {
  namespace fs = std::filesystem;
  fs::path dir = "/tmp/mtt_cli_triage";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::string scen = (dir / "acct.scenario").string();
  std::string minScen = (dir / "acct.min.scenario").string();
  std::string corpus = (dir / "corpus").string();

  // Full-strength noise leaves the minimizer plenty of headroom.
  CmdResult hunt = runCli("hunt account --noise mixed --strength 1.0 "
                          "--seeds 200 --out " + scen);
  ASSERT_EQ(hunt.exitCode, 0) << hunt.output;
  ASSERT_NE(hunt.output.find("scenario saved to " + scen), std::string::npos)
      << hunt.output;
  EXPECT_NE(hunt.output.find("fingerprint "), std::string::npos);

  CmdResult shr = runCli("shrink account " + scen + " --jobs 2 --out " +
                         minScen + " --corpus " + corpus);
  ASSERT_EQ(shr.exitCode, 0) << shr.output;
  EXPECT_NE(shr.output.find("% removed"), std::string::npos) << shr.output;
  EXPECT_NE(shr.output.find("exact (verified)"), std::string::npos)
      << shr.output;
  EXPECT_NE(shr.output.find("corpus: new entry account/"), std::string::npos)
      << shr.output;

  // The minimized witness replays exactly on its own.
  CmdResult rep = runCli("replay account " + minScen);
  EXPECT_EQ(rep.exitCode, 0) << rep.output;
  EXPECT_NE(rep.output.find("(exact)"), std::string::npos) << rep.output;

  CmdResult list = runCli("corpus list --corpus " + corpus);
  EXPECT_EQ(list.exitCode, 0) << list.output;
  EXPECT_NE(list.output.find("account"), std::string::npos);
  EXPECT_NE(list.output.find("1 entry"), std::string::npos) << list.output;

  CmdResult ver = runCli("corpus verify --corpus " + corpus);
  EXPECT_EQ(ver.exitCode, 0) << ver.output;
  EXPECT_NE(ver.output.find("verified 1/1"), std::string::npos) << ver.output;
}

TEST(Cli, CorruptScenarioFailsWithDiagnosticNotCrash) {
  std::string path = "/tmp/mtt_cli_corrupt.scenario";
  {
    std::ofstream f(path, std::ios::trunc);
    f << "garbage\n";
  }
  CmdResult r = runCli("replay account " + path);
  EXPECT_EQ(r.exitCode, 2) << r.output;
  EXPECT_NE(r.output.find("bad magic"), std::string::npos) << r.output;

  CmdResult s = runCli("shrink account " + path);
  EXPECT_EQ(s.exitCode, 2) << s.output;

  CmdResult missing = runCli("replay account /tmp/mtt_no_such.scenario");
  EXPECT_EQ(missing.exitCode, 2) << missing.output;
}

TEST(Cli, ShrinkRejectsWrongProgram) {
  namespace fs = std::filesystem;
  fs::path dir = "/tmp/mtt_cli_wrongprog";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::string scen = (dir / "dine.scenario").string();
  CmdResult hunt = runCli(
      "hunt philosophers_deadlock --noise mixed --strength 1.0 --seeds 200 "
      "--out " + scen);
  ASSERT_EQ(hunt.exitCode, 0) << hunt.output;
  CmdResult r = runCli("shrink account " + scen);
  EXPECT_EQ(r.exitCode, 2) << r.output;
  EXPECT_NE(r.output.find("was recorded for program"), std::string::npos)
      << r.output;
}

TEST(Cli, JournaledExperimentResumesByteIdentical) {
  namespace fs = std::filesystem;
  std::string dir = ::testing::TempDir() + "cli_journal";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::string journal = dir + "/run.journal";
  std::string common =
      "experiment account --runs 60 --noise mixed --jobs 2 --no-timing";

  CmdResult whole = runCli(common);
  ASSERT_EQ(whole.exitCode, 0) << whole.output;

  CmdResult journaled = runCli(common + " --journal " + journal);
  ASSERT_EQ(journaled.exitCode, 0) << journaled.output;
  ASSERT_TRUE(fs::exists(journal));

  // Resuming a complete journal re-runs nothing and reproduces the report
  // byte-for-byte (the report is everything before any stderr notes; with
  // --no-timing and 2>&1 the whole output matches).
  CmdResult resumed = runCli(common + " --resume " + journal);
  EXPECT_EQ(resumed.exitCode, 0) << resumed.output;
  EXPECT_EQ(resumed.output, whole.output);

  // A different tool stack is refused with a clear diagnostic.
  CmdResult mismatch = runCli(
      "experiment account --runs 60 --noise yield --jobs 2 --no-timing "
      "--resume " +
      journal);
  EXPECT_EQ(mismatch.exitCode, 2) << mismatch.output;
  EXPECT_NE(mismatch.output.find("different campaign config"),
            std::string::npos)
      << mismatch.output;
  fs::remove_all(dir);
}

TEST(Cli, PostmortemHuntFilesReplayableWitness) {
  namespace fs = std::filesystem;
  std::string dir = ::testing::TempDir() + "cli_pm";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::string scenario = dir + "/crash.scenario";

  // Env-gated hard mode: the bug segfaults the forked worker; the flight
  // recorder delivers the partial schedule; hunt files it without replaying
  // the crash in-process.
  ::setenv("MTT_CRASH_DEREF_HARD", "1", 1);
  CmdResult hunt = runCli("hunt crash_deref --seeds 64 --isolate --jobs 2 "
                          "--postmortem-dir " +
                          dir + "/pm --corpus " + dir + "/corpus --out " +
                          scenario);
  ::unsetenv("MTT_CRASH_DEREF_HARD");
  ASSERT_EQ(hunt.exitCode, 0) << hunt.output;
  EXPECT_NE(hunt.output.find("(crashed)"), std::string::npos) << hunt.output;
  EXPECT_NE(hunt.output.find("postmortem scenario saved"), std::string::npos)
      << hunt.output;
  EXPECT_NE(hunt.output.find("unverified postmortem witness"),
            std::string::npos)
      << hunt.output;

  // Soft mode (gate unset): the same schedule replays and shrinks safely.
  CmdResult rep = runCli("replay crash_deref " + scenario);
  EXPECT_EQ(rep.exitCode, 0) << rep.output;
  EXPECT_NE(rep.output.find("(exact)"), std::string::npos) << rep.output;
  CmdResult shr = runCli("shrink crash_deref " + scenario);
  EXPECT_EQ(shr.exitCode, 0) << shr.output;
  EXPECT_NE(shr.output.find("minimized scenario saved"), std::string::npos)
      << shr.output;

  CmdResult list = runCli("corpus list --corpus " + dir + "/corpus");
  EXPECT_EQ(list.exitCode, 0) << list.output;
  EXPECT_NE(list.output.find("crash_deref"), std::string::npos) << list.output;
  EXPECT_NE(list.output.find("crash"), std::string::npos) << list.output;
  fs::remove_all(dir);
}

}  // namespace
