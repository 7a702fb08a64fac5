// mtt — the framework's command-line driver: the paper's "prepared scripts"
// as one binary.  A researcher evaluating a new tool uses these subcommands
// to browse the repository, generate trace artifacts, run prepared
// experiments and reproduce scenarios without writing any C++.
//
//   mtt list                          program catalog with bug documentation
//   mtt describe <program>            full documentation of one program
//   mtt run <program> [options]       one seeded run, verdict + outcome
//   mtt hunt <program> [options]      seed sweep until the bug manifests;
//                                     saves the scenario file
//   mtt replay <program> <scenario>   re-execute a saved scenario
//   mtt explore <program> [options]   systematic schedule exploration
//   mtt shrink <program> <scenario>   ddmin-minimize a failing scenario
//   mtt corpus <list|show|verify|gc>  browse/maintain the scenario corpus
//   mtt tracegen <dir> [options]      build an annotated trace repository
//   mtt analyze <trace...>            offline race + deadlock analysis
//   mtt experiment <program> [opts]   the prepared experiment (find rates)
//   mtt check <program>               static analysis + model checking (IR)
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "core/table.hpp"
#include "core/wire.hpp"
#include "deadlock/lockgraph.hpp"
#include "experiment/experiment.hpp"
#include "farm/farm.hpp"
#include "explore/explorer.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/guide_runner.hpp"
#include "fleet/worker.hpp"
#include "guide/guide.hpp"
#include "model/checker.hpp"
#include "model/static.hpp"
#include "noise/noise.hpp"
#include "race/detectors.hpp"
#include "replay/replay.hpp"
#include "rt/harness.hpp"
#include "suite/program.hpp"
#include "trace/trace.hpp"
#include "triage/corpus.hpp"
#include "triage/postmortem.hpp"
#include "triage/probe.hpp"
#include "triage/shrink.hpp"
#include "triage/signature.hpp"

using namespace mtt;

namespace {

// --- graceful shutdown -------------------------------------------------------
//
// The first SIGINT/SIGTERM latches the stop flag: the farm stops dispatching,
// in-flight runs drain, the journal is flushed, and the command prints a
// partial summary with a resume hint before exiting 130.  A second signal
// means "now": hard exit without draining.
constexpr int kInterruptedExit = 130;

std::atomic<bool> g_stopRequested{false};

extern "C" void onStopSignal(int) {
  if (g_stopRequested.exchange(true)) std::_Exit(kInterruptedExit);
}

void installStopHandlers() {
  std::signal(SIGINT, onStopSignal);
  std::signal(SIGTERM, onStopSignal);
}

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;  // --key value / --flag

  bool has(const std::string& k) const { return options.count(k) != 0; }
  std::string get(const std::string& k, const std::string& dflt) const {
    auto it = options.find(k);
    return it == options.end() ? dflt : it->second;
  }
  std::uint64_t getU64(const std::string& k, std::uint64_t dflt) const {
    auto it = options.find(k);
    if (it == options.end()) return dflt;
    std::uint64_t v = 0;
    if (!wire::parseU64(it->second, v)) {
      throw std::runtime_error("--" + k +
                               " expects a non-negative integer, got '" +
                               it->second + "'");
    }
    return v;
  }
  double getF(const std::string& k, double dflt) const {
    auto it = options.find(k);
    if (it == options.end()) return dflt;
    return parseNumber("--" + k, it->second);
  }
  static double parseNumber(const std::string& flag, const std::string& s) {
    double v = 0;
    if (!wire::parseDouble(s, v)) {
      throw std::runtime_error(flag + " expects a number, got '" + s + "'");
    }
    return v;
  }
};

Args parseArgs(int argc, char** argv, int from) {
  Args a;
  for (int i = from; i < argc; ++i) {
    std::string s = argv[i];
    if (s.rfind("--", 0) == 0) {
      std::string key = s.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        a.options[key] = argv[++i];
      } else {
        a.options[key] = "1";
      }
    } else {
      a.positional.push_back(std::move(s));
    }
  }
  return a;
}

int usage() {
  std::fputs(
      "usage: mtt <command> [args]\n"
      "\n"
      "  list [--tag T] [--names]               program catalog (--tag\n"
      "                filters by registry tag; --names prints bare names)\n"
      "  describe <program>                     documentation + bugs + IR info\n"
      "  run <program> [--seed N] [--mode controlled|native]\n"
      "                [--policy P] [--noise H] [--strength F]\n"
      "                [--dispatch-stats]\n"
      "  hunt <program> [--seeds N] [--noise H] [--policy P] [--out FILE]\n"
      "                [--jobs N] [--timeout-ms T] [--jsonl FILE]\n"
      "                [--corpus DIR] [--shrink] [--journal FILE]\n"
      "                [--resume FILE] [--postmortem-dir DIR]\n"
      "                [--guide] [--budget N] [--saturate] [--coverage M]\n"
      "                [--guide-log FILE] [--guide-replay FILE] [--seq-cst]\n"
      "  replay <program> <scenario-file> [--seed N] [--noise H] [--strength F]\n"
      "  shrink <program> <scenario-file> [--jobs N] [--out FILE]\n"
      "                [--corpus DIR] [--keep-noise] [--max-validations N]\n"
      "  corpus list|show|verify|gc [--corpus DIR] [--program P]\n"
      "                (show takes: corpus show <program> <fingerprint>)\n"
      "  explore <program> [--bound K] [--budget N] [--random-walk]\n"
      "                [--sleep-sets] [--out FILE] [--corpus DIR] [--shrink]\n"
      "                [--detectors a,b]  (no --policy: systematic order)\n"
      "  tracegen <dir> [--programs a,b,c] [--seeds N] [--noise H] [--binary]\n"
      "  analyze <trace-file...>\n"
      "  experiment <program> [--runs N] [--policy P] [--noise a,b,c]\n"
      "                [--detectors a,b,c] [--jobs N] [--timeout-ms T]\n"
      "                [--jsonl FILE] [--isolate] [--progress] [--no-timing]\n"
      "                [--journal FILE] [--resume FILE]\n"
      "                [--adaptive] [--budget N] [--saturate] [--coverage M]\n"
      "  serve <program> [--listen ADDR] [--runs N] [--lease-size N]\n"
      "                [--heartbeat-ms T] [--lease-timeout-ms T]\n"
      "                [--degraded-timeout-ms T] [--max-leases N]\n"
      "                [--quarantine-after N] [--adaptive] [--budget N]\n"
      "                [--journal FILE] [--resume FILE] [--scrub-timing]\n"
      "  worker --connect ADDR [--connect-timeout-ms T] [--retries N]\n"
      "                [--heartbeat-ms T] [--reconnect]\n"
      "                [--reconnect-attempts N]\n"
      "                [--worker-mem-mb N] [--worker-cpu-s N]\n"
      "  chaos <program> [--plan SPEC] [--chaos-seed N] [--runs N]\n"
      "                [--workers N] [--lease-size N] [--heartbeat-ms T]\n"
      "                [--lease-timeout-ms T] [--degraded-timeout-ms T]\n"
      "                [--wall-cap-ms T] [--dir DIR] [--keep]\n"
      "  check <program>                        static + model checking\n"
      "\n"
      "  schedule policies (--policy P): rr | random[:switch=P] |\n"
      "  pct[:d=D,k=K] | pos | priority[:d=D,k=K].  pct is randomized\n"
      "  priority scheduling with D priority-change points over a run-length\n"
      "  window K (k=0 or absent: adaptive); priority is its historical\n"
      "  alias; pos draws a fresh random priority per pending operation and\n"
      "  reassigns the priorities of racing operations after each step.\n"
      "  explore enumerates systematically and rejects --policy; --sleep-sets\n"
      "  selects Optimal DPOR (one schedule per Mazurkiewicz trace) and\n"
      "  cannot be combined with --bound.\n"
      "\n"
      "  weak memory: programs tagged 'atomics' use mem::Atomic with\n"
      "  explicit memory orders; --seq-cst (run/hunt/experiment) forces\n"
      "  seq_cst on every atomic op, so a bug that vanishes under it needs\n"
      "  the weak model, not just an unlucky interleaving.\n"
      "\n"
      "  farm flags: --jobs N shards runs over N workers (0 = all cores);\n"
      "  --timeout-ms is a per-run watchdog; --jsonl streams one JSON record\n"
      "  per run; --isolate forks worker processes (crash containment);\n"
      "  --no-timing drops wall-clock columns for byte-stable reports.\n"
      "\n"
      "  durability flags: --journal FILE appends a checksummed record per\n"
      "  completed run; --resume FILE skips journaled runs and merges their\n"
      "  records (byte-identical report in controlled mode for any --jobs);\n"
      "  --postmortem-dir DIR (with --isolate) dumps a replayable partial\n"
      "  scenario when a run crashes or times out; --worker-mem-mb N and\n"
      "  --worker-cpu-s N cap each worker process.  SIGINT drains in-flight\n"
      "  runs, flushes the journal and exits 130; a second SIGINT is "
      "immediate.\n"
      "\n"
      "  triage flags: --corpus DIR files each counterexample under its\n"
      "  failure fingerprint (dedup keeps the smallest witness); --shrink\n"
      "  ddmin-minimizes the schedule before filing/saving it.\n"
      "\n"
      "  guided flags: --guide / --adaptive run a coverage-guided campaign —\n"
      "  a UCB1 bandit over noise-heuristic x strength arms (plus corpus-\n"
      "  seeded schedule-mutation arms with --corpus; --policies \"a;b\"\n"
      "  multiplies the arm set by schedule policies, ';'-separated since\n"
      "  policy specs contain commas) spends --budget N runs\n"
      "  where novel coverage or failure fingerprints still appear;\n"
      "  --saturate stops early when coverage saturates (closed universes:\n"
      "  full coverage; open: Good-Turing unseen mass < --unseen-threshold).\n"
      "  --coverage M picks the model (default switch-pair); --closed-\n"
      "  universe declares the static task universe.  Arm decisions append\n"
      "  to --guide-log FILE (default: <journal>.arms); --guide-replay FILE\n"
      "  re-runs a logged campaign byte-identically for any --jobs.\n"
      "\n"
      "  fleet flags: serve listens on --listen (host:port, port 0 =\n"
      "  ephemeral, or unix:/path.sock) and shards runs into --lease-size\n"
      "  leases over connected workers; dead/hung workers are quarantined\n"
      "  and their leases reassigned, so the final report and journal are\n"
      "  byte-identical to the single-machine --jobs 1 run (--scrub-timing\n"
      "  zeroes wall-clock record fields for exact journal comparison).\n"
      "  serve --adaptive runs the guided campaign with batches leased to\n"
      "  the fleet.  worker executes leased runs until the coordinator\n"
      "  closes the campaign.  --heartbeat-ms must be strictly less than\n"
      "  --lease-timeout-ms; --degraded-timeout-ms aborts a campaign with a\n"
      "  resumable journal when no worker is active and no record arrives\n"
      "  for that long (0 = wait forever).  worker --reconnect re-dials a\n"
      "  lost coordinator (at most --reconnect-attempts consecutive failed\n"
      "  dials) and resumes its session.\n"
      "\n"
      "  chaos flags: --plan takes a fault-plan spec — a preset (sever,\n"
      "  stall, partial, heartbeat, disk-full, fsync-fail) or\n"
      "  rule[:k=v,...][+rule...] with rules sever|stall|short-read|hb-dup|\n"
      "  hb-delay|disk-short|disk-full|fsync-fail and keys site=,prob=,\n"
      "  after=,times=,ms=,bytes=.  The same --chaos-seed yields the same\n"
      "  fault sequence.  chaos runs a fault-free --jobs 1 baseline, then\n"
      "  the same campaign through a 2-worker fleet under the plan, and\n"
      "  verifies: complete byte-identically, or terminate promptly with a\n"
      "  resumable journal and a diagnostic naming the fault — never a\n"
      "  hang, never silent corruption.  Exits 0 only if that holds.\n",
      stderr);
  return 2;
}

/// The non-empty items of a `sep`-separated list.
std::vector<std::string> splitList(const std::string& s, char sep = ',') {
  std::vector<std::string> out;
  for (std::string_view item : wire::splitFields(s, sep)) {
    if (!item.empty()) out.emplace_back(item);
  }
  return out;
}

// --- list / describe ---------------------------------------------------------

int cmdList(const Args& a) {
  const std::string tag = a.get("tag", "");
  const auto names = tag.empty() ? suite::allProgramNames()
                                 : suite::allProgramNames(tag);
  if (tag.empty() == false && names.empty()) {
    std::string known;
    for (const auto& t : suite::ProgramRegistry::instance().allTags()) {
      if (!known.empty()) known += ", ";
      known += t;
    }
    std::fprintf(stderr, "no programs tagged '%s' (known tags: %s)\n",
                 tag.c_str(), known.c_str());
    return 1;
  }
  if (a.has("names")) {
    // Script-friendly: one bare program name per line, no decoration.
    for (const auto& name : names) std::printf("%s\n", name.c_str());
    return 0;
  }
  TextTable t("benchmark program repository");
  t.header({"program", "kind", "tags", "bugs", "description"});
  for (const auto& name : names) {
    auto p = suite::makeProgram(name);
    std::string kinds;
    for (const auto& b : p->bugs()) {
      if (!kinds.empty()) kinds += ",";
      kinds += to_string(b.kind);
    }
    std::string tags;
    for (const auto& tg : suite::ProgramRegistry::instance().tagsOf(name)) {
      if (!tags.empty()) tags += ",";
      tags += tg;
    }
    std::string desc = p->description();
    if (desc.size() > 48) desc = desc.substr(0, 45) + "...";
    t.row({name, p->isControl() ? "control" : "buggy",
           tags.empty() ? "-" : tags, kinds.empty() ? "-" : kinds, desc});
  }
  t.print();
  return 0;
}

int cmdDescribe(const Args& a) {
  if (a.positional.empty()) return usage();
  auto p = suite::makeProgram(a.positional[0]);
  std::printf("%s (%s)\n  %s\n", p->name().c_str(),
              p->isControl() ? "control" : "buggy",
              p->description().c_str());
  for (const auto& b : p->bugs()) {
    std::printf("\n  bug %s [%s]\n    %s\n    sites:", b.id.c_str(),
                std::string(to_string(b.kind)).c_str(),
                b.description.c_str());
    for (const auto& t : b.siteTags) std::printf(" %s", t.c_str());
    std::printf("\n");
  }
  if (const model::Program* ir = p->irModel()) {
    std::printf("\n  IR model: %zu threads, %zu vars, %zu locks, %zu instructions\n",
                ir->threads().size(), ir->vars().size(), ir->locks().size(),
                ir->totalInstructions());
  } else {
    std::printf("\n  IR model: (none)\n");
  }
  return 0;
}

// --- run / hunt / replay -------------------------------------------------------

RuntimeMode parseMode(const Args& a) {
  std::string m = a.get("mode", "controlled");
  if (m == "native") return RuntimeMode::Native;
  if (m == "controlled") return RuntimeMode::Controlled;
  throw std::runtime_error("unknown mode '" + m +
                           "' (valid: controlled, native)");
}

// The one flag table every run-executing subcommand (run, hunt, explore,
// experiment) shares: --mode/--policy/--noise/--strength/--detectors/
// --lock-graph/--coverage/--closed-universe/--seed-base all land in the
// same experiment::RunSpec, so a flag means the same thing everywhere.
experiment::RunSpec runSpecFromArgs(const Args& a,
                                    const std::string& defaultPolicy) {
  experiment::RunSpec spec;
  if (!a.positional.empty()) spec.programName = a.positional[0];
  spec.tool.mode = parseMode(a);
  spec.tool.policy = a.get("policy", defaultPolicy);
  spec.tool.noiseName = a.get("noise", "none");
  spec.tool.noiseOpts.strength = a.getF("strength", 0.25);
  spec.tool.detectors = splitList(a.get("detectors", ""));
  spec.tool.lockGraph = a.has("lock-graph");
  spec.tool.coverage = a.get("coverage", "");
  spec.tool.coverageClosedUniverse = a.has("closed-universe");
  spec.seedBase = a.getU64("seed-base", 0);
  spec.forceSeqCst = a.has("seq-cst");
  return spec;
}

farm::FarmOptions farmOptions(const Args& a) {
  farm::FarmOptions fo;
  fo.jobs = static_cast<std::size_t>(a.getU64("jobs", 0));
  fo.runTimeout = std::chrono::milliseconds(a.getU64("timeout-ms", 0));
  fo.jsonlPath = a.get("jsonl", "");
  fo.model = a.has("isolate") ? farm::WorkerModel::Process
                              : farm::WorkerModel::Thread;
  fo.progress = a.has("progress");
  fo.journalPath = a.get("journal", "");
  if (a.has("resume")) {
    fo.journalPath = a.get("resume", "");
    fo.resume = true;
  }
  fo.postmortemDir = a.get("postmortem-dir", "");
  fo.workerMemLimitMb = static_cast<std::size_t>(a.getU64("worker-mem-mb", 0));
  fo.workerCpuLimitSec = static_cast<std::size_t>(a.getU64("worker-cpu-s", 0));
  fo.scrubTiming = a.has("scrub-timing");
  fo.stopFlag = &g_stopRequested;
  installStopHandlers();
  return fo;
}

bool farmRequested(const Args& a) {
  return a.has("jobs") || a.has("timeout-ms") || a.has("jsonl") ||
         a.has("isolate") || a.has("progress") || a.has("journal") ||
         a.has("resume") || a.has("postmortem-dir") ||
         a.has("worker-mem-mb") || a.has("worker-cpu-s") ||
         a.has("scrub-timing");
}

// Partial-summary epilogue for a campaign the user interrupted: says what
// completed, how to pick the campaign back up, and exits 130.
int interruptedEpilogue(const farm::CampaignResult& cr,
                        const std::string& journalPath) {
  std::fprintf(stderr,
               "mtt: interrupted; %zu of %llu run(s) completed and flushed\n",
               cr.records.size(),
               static_cast<unsigned long long>(cr.requested));
  if (!journalPath.empty()) {
    std::fprintf(stderr,
                 "mtt: resume with: --resume %s  (skips the %zu journaled "
                 "run(s))\n",
                 journalPath.c_str(), cr.records.size());
  } else {
    std::fprintf(stderr,
                 "mtt: re-run with --journal FILE to make campaigns "
                 "resumable\n");
  }
  return kInterruptedExit;
}

// One run of `p` on the tool stack the run flags describe.  Controlled runs
// schedule under `policy`, or under the flags' --policy when it is null.
rt::RunResult runWithFlags(const Args& a, suite::Program& p,
                           const rt::RunOptions& o,
                           std::unique_ptr<rt::SchedulePolicy> policy) {
  experiment::RunSpec spec = runSpecFromArgs(a, "random");
  experiment::validateToolConfig(spec.tool);
  if (policy == nullptr && spec.tool.mode == RuntimeMode::Controlled) {
    policy = experiment::makePolicy(spec.tool.policy);
  }
  experiment::ToolStack tools = experiment::makeToolStack(spec.tool);
  rt::Runtime& rt = tools.runtime(spec.tool.mode, std::move(policy));
  p.reset();
  return rt.run([&](rt::Runtime& rr) { p.body(rr); }, o);
}

int cmdRun(const Args& a) {
  if (a.positional.empty()) return usage();
  auto p = suite::makeProgram(a.positional[0]);
  rt::RunOptions o = p->defaultRunOptions();
  o.seed = a.getU64("seed", 0);
  o.programName = p->name();
  o.dispatchTiming = a.has("dispatch-stats");
  if (a.has("seq-cst")) o.forceSeqCst = true;
  rt::RunResult r = runWithFlags(a, *p, o, nullptr);
  std::printf("status:  %s\n", std::string(to_string(r.status)).c_str());
  if (!r.failureMessage.empty()) {
    std::printf("failure: %s\n", r.failureMessage.c_str());
  }
  for (const auto& b : r.blocked) {
    std::printf("blocked: %s waiting for %s\n", b.threadName.c_str(),
                b.waitingFor.c_str());
  }
  std::printf("events:  %llu\noutcome: %s\nverdict: %s\n",
              static_cast<unsigned long long>(r.events),
              p->outcome().c_str(),
              p->evaluate(r) == suite::Verdict::BugManifested
                  ? "BUG MANIFESTED"
                  : "pass");
  if (a.has("dispatch-stats")) {
    const DispatchStats& d = r.dispatch;
    std::printf("\ndispatch: %llu events, %llu deliveries, %.1f ns/event\n",
                static_cast<unsigned long long>(d.events),
                static_cast<unsigned long long>(d.deliveries),
                d.nsPerEvent());
    for (std::size_t k = 0; k < kEventKindCount; ++k) {
      if (d.countsByKind[k] == 0) continue;
      std::printf("  %-16s %llu\n",
                  std::string(to_string(static_cast<EventKind>(k))).c_str(),
                  static_cast<unsigned long long>(d.countsByKind[k]));
    }
    for (const auto& l : d.listeners) {
      std::printf("  tool %-14s %llu calls, %llu ns\n", l.name.c_str(),
                  static_cast<unsigned long long>(l.calls),
                  static_cast<unsigned long long>(l.ns));
    }
  }
  return p->evaluate(r) == suite::Verdict::BugManifested ? 1 : 0;
}

// Derives the minimized-witness path for a scenario file:
// "x.scenario" -> "x.min.scenario", anything else -> "<path>.min".
std::string minimizedPathFor(const std::string& path) {
  const std::string ext = ".scenario";
  if (path.size() > ext.size() &&
      path.compare(path.size() - ext.size(), ext.size(), ext) == 0) {
    return path.substr(0, path.size() - ext.size()) + ".min" + ext;
  }
  return path + ".min";
}

// Shared --shrink / --corpus handling for a freshly saved counterexample
// (hunt and explore).  `sig` is the signature of the recorded run.
void triageScenario(const Args& a, const replay::Scenario& sc,
                    const triage::FailureSignature& sig,
                    const std::string& outPath) {
  replay::Scenario best = sc;
  triage::FailureSignature bestSig = sig;
  bool shrunk = false;
  bool verified = false;
  if (a.has("shrink")) {
    triage::ShrinkOptions so;
    so.jobs = static_cast<std::size_t>(a.getU64("jobs", 1));
    triage::ShrinkResult r = triage::shrinkScenario(sc, so);
    if (!r.reproduced) {
      std::printf("shrink: scenario did not reproduce; keeping original\n");
    } else {
      best = r.minimized;
      bestSig = r.signature;
      shrunk = true;
      verified = r.verifiedExact;
      std::string minPath = minimizedPathFor(outPath);
      replay::saveScenario(best, minPath);
      std::printf(
          "minimized scenario saved to %s (%zu of %zu decisions, "
          "%zu preemptions%s)\n",
          minPath.c_str(), best.schedule.size(), sc.schedule.size(),
          r.minimizedPreemptions, r.noiseStripped ? ", noise stripped" : "");
    }
  }
  if (a.has("corpus")) {
    if (!shrunk) {
      // Honest replay-verified flag: re-run the witness under exact replay.
      triage::ProbeResult p =
          triage::probeExact(best.program, best.schedule,
                             triage::toolConfigOf(best));
      verified = p.exact && p.signature == bestSig;
    }
    triage::Corpus corpus(a.get("corpus", "corpus"));
    triage::InsertResult ins =
        corpus.insert(best, bestSig, verified, shrunk,
                      static_cast<std::uint64_t>(std::time(nullptr)));
    const char* what = ins.inserted ? "new entry"
                       : ins.replaced ? "improved witness"
                                      : "kept existing smaller witness";
    std::printf("corpus: %s %s/%s\n", what, best.program.c_str(),
                ins.fingerprint.c_str());
  }
}

// Builds the guide options every adaptive subcommand (hunt --guide,
// experiment --adaptive) shares.
guide::GuideOptions guideOptionsFromArgs(const Args& a,
                                         std::uint64_t defaultBudget) {
  guide::GuideOptions go;
  go.budget = a.getU64("budget", defaultBudget);
  go.saturate = a.has("saturate");
  if (a.has("heuristics")) go.heuristics = splitList(a.get("heuristics", ""));
  if (a.has("strengths")) {
    go.strengths.clear();
    for (const std::string& s : splitList(a.get("strengths", ""))) {
      go.strengths.push_back(Args::parseNumber("--strengths", s));
    }
  }
  if (a.has("policies")) {
    // ';'-separated (not ','): parameterized policy specs like "pct:d=3,k=64"
    // contain commas.  Entries validate inside runGuided (exit 2 on error).
    go.policies = splitList(a.get("policies", ""), ';');
    if (go.policies.empty()) {
      throw std::runtime_error(
          "--policies expects a ';'-separated list of schedule policy specs");
    }
  }
  if (a.has("corpus")) go.corpusDir = a.get("corpus", "corpus");
  go.maxMutationArms =
      static_cast<std::size_t>(a.getU64("mutation-arms", 4));
  go.decisionLogPath = a.get("guide-log", "");
  go.replayLogPath = a.get("guide-replay", "");
  go.quietRuns = static_cast<std::size_t>(a.getU64("quiet-runs", 24));
  go.unseenMassThreshold = a.getF("unseen-threshold", 0.02);
  go.farm = farmOptions(a);
  return go;
}

int cmdHuntGuided(const Args& a) {
  experiment::RunSpec base = runSpecFromArgs(a, "random");
  guide::GuideOptions go =
      guideOptionsFromArgs(a, a.getU64("seeds", 500));
  go.stopOnFirstFind = true;
  guide::GuideResult g = guide::runGuided(base, go);
  std::fputs(guide::guideReport(g, !a.has("no-timing")).c_str(), stdout);
  if (!g.decisionLogPath.empty()) {
    std::printf("decision log: %s\n", g.decisionLogPath.c_str());
  }
  if (!g.found) {
    if (g_stopRequested.load()) {
      std::fprintf(stderr,
                   "mtt: interrupted; %zu of %llu guided run(s) folded\n",
                   g.runs(), static_cast<unsigned long long>(g.budget));
      if (!go.farm.journalPath.empty()) {
        std::fprintf(stderr, "mtt: resume with: --resume %s\n",
                     go.farm.journalPath.c_str());
      }
      return kInterruptedExit;
    }
    std::printf("no manifestation in %zu guided runs%s\n", g.runs(),
                g.saturated ? " (coverage saturated)" : "");
    return 1;
  }
  // Record the find as a v2 scenario, exactly as the fixed-budget hunt
  // does, so --shrink / --corpus triage applies unchanged.
  const guide::Arm& arm = g.arms[g.firstFindArm].arm;
  replay::Scenario sc;
  sc.program = base.programName;
  sc.seed = g.firstFindSeed;
  sc.policy = arm.witness ? "mutated-replay"
              : arm.policy.empty() ? base.tool.policy
                                   : arm.policy;
  sc.noise = arm.noise;
  sc.strength = arm.strength;
  // The guide's campaign runs record no schedules; controlled mode makes
  // the (arm, seed) pair reproducible, so the find is re-run recording.
  triage::ProbeResult rec =
      triage::recordRun(sc.program, guide::makeArmPolicy(arm, base.tool.policy),
                        triage::toolConfigOf(sc));
  sc.schedule = rec.recorded;
  std::string outPath =
      a.get("out", sc.program + ".seed" + std::to_string(g.firstFindSeed) +
                       ".scenario");
  replay::saveScenario(sc, outPath);
  std::printf(
      "bug manifested at run %llu (seed %llu, arm %s) of %zu guided runs\n"
      "scenario saved to %s (%zu decisions)\n"
      "fingerprint %s (%s)\n"
      "replay with: mtt replay %s %s\n",
      static_cast<unsigned long long>(g.firstFindRun),
      static_cast<unsigned long long>(g.firstFindSeed), arm.label().c_str(),
      g.runs(), outPath.c_str(), sc.schedule.size(),
      rec.signature.fingerprint().c_str(),
      std::string(to_string(rec.signature.kind)).c_str(),
      sc.program.c_str(), outPath.c_str());
  triageScenario(a, sc, rec.signature, outPath);
  return 0;
}

int cmdHunt(const Args& a) {
  if (a.positional.empty()) return usage();
  if (a.has("guide") || a.has("guide-replay")) return cmdHuntGuided(a);
  auto p = suite::makeProgram(a.positional[0]);
  std::uint64_t seeds = a.getU64("seeds", 500);

  // The seed scan is a farm campaign: in seed order over --jobs workers,
  // stopped at the first manifestation, optionally streamed to --jsonl.
  experiment::ExperimentSpec spec;
  static_cast<experiment::RunSpec&>(spec) = runSpecFromArgs(a, "random");
  spec.runs = seeds;
  experiment::validateToolConfig(spec.tool);

  std::optional<std::uint64_t> found;
  std::string foundStatus;
  std::string foundPostmortem;
  std::uint64_t scanned = 0;
  const farm::JobFn run = farm::experimentJob(spec);
  if (!farmRequested(a)) {
    // Serial scan: exact legacy behavior (stops at the first seed, in
    // order), no farm machinery involved.  One reused tool stack.
    for (std::uint64_t seed = 0; seed < seeds; ++seed) {
      experiment::RunObservation obs = run(seed);
      ++scanned;
      if (obs.manifested) {
        found = seed;
        foundStatus = obs.status;
        break;
      }
    }
  } else {
    farm::FarmOptions fo = farmOptions(a);
    // A crashed/timed-out worker with a flight-recorder dump is a find too:
    // the bug manifested hard enough to kill the process.
    fo.stopOnRecord = [](const experiment::RunObservation& o) {
      return o.manifested || !o.postmortemPath.empty();
    };
    farm::CampaignResult cr = farm::runJobs(seeds, run, fo);
    scanned = cr.records.size();
    for (const auto& r : cr.records) {  // sorted: smallest manifesting seed
      if (r.manifested || !r.postmortemPath.empty()) {
        found = r.runIndex;
        foundStatus = r.status;
        foundPostmortem = r.postmortemPath;
        break;
      }
    }
    if (cr.quarantined > 0) {
      std::fprintf(stderr,
                   "mtt: %zu quarantined run(s) reported from the journal "
                   "(infra-error; retry budget exhausted)\n",
                   cr.quarantined);
    }
    if (!found && g_stopRequested.load()) {
      return interruptedEpilogue(cr, fo.journalPath);
    }
  }

  if (!found) {
    std::printf("no manifestation in %llu seeds\n",
                static_cast<unsigned long long>(seeds));
    return 1;
  }
  if (!foundPostmortem.empty()) {
    // The find never reported in-process (the worker died), so re-recording
    // it here would take this process down too.  The flight-recorder dump
    // IS the scenario: file it as an unverified witness.
    std::string outPath =
        a.get("out", spec.programName + ".seed" + std::to_string(*found) +
                         ".postmortem.scenario");
    std::error_code ec;
    std::filesystem::copy_file(
        foundPostmortem, outPath,
        std::filesystem::copy_options::overwrite_existing, ec);
    if (ec) outPath = foundPostmortem;  // keep pointing at the dump
    replay::Scenario sc = replay::loadScenario(outPath);
    std::printf(
        "bug manifested at seed %llu (%s) after %llu runs\n"
        "postmortem scenario saved to %s (%zu decisions, partial)\n"
        "replay with: mtt replay %s %s\n",
        static_cast<unsigned long long>(*found), foundStatus.c_str(),
        static_cast<unsigned long long>(scanned), outPath.c_str(),
        sc.schedule.size(), spec.programName.c_str(), outPath.c_str());
    if (a.has("shrink")) {
      std::printf(
          "shrink: skipped for a %s postmortem (exact replay would repeat "
          "the crash in-process; shrink it in a soft configuration)\n",
          foundStatus.c_str());
    }
    if (a.has("corpus")) {
      triage::Corpus corpus(a.get("corpus", "corpus"));
      triage::InsertResult ins = triage::ingestPostmortem(
          corpus, outPath, foundStatus,
          static_cast<std::uint64_t>(std::time(nullptr)));
      const char* what = ins.inserted ? "new entry"
                         : ins.replaced ? "improved witness"
                                        : "kept existing smaller witness";
      std::printf("corpus: %s %s/%s (unverified postmortem witness)\n", what,
                  spec.programName.c_str(), ins.fingerprint.c_str());
    }
    return 0;
  }
  // Re-execute the found seed with a RecordingPolicy (controlled mode is
  // deterministic in (policy, seed), so this reproduces what the scan saw)
  // and save the full v2 scenario: seed, tool stack and decisions.
  replay::Scenario sc;
  sc.program = p->name();
  sc.seed = *found;
  sc.policy = spec.tool.policy;
  sc.noise = spec.tool.noiseName;
  sc.strength = spec.tool.noiseOpts.strength;
  triage::ProbeResult rec =
      triage::recordRun(sc.program, sc.policy, triage::toolConfigOf(sc));
  sc.schedule = rec.recorded;
  // Default scenario name carries the seed, so concurrent hunts (or hunts
  // for different bugs of one program) never clobber each other's files.
  std::string outPath =
      a.get("out", sc.program + ".seed" + std::to_string(*found) + ".scenario");
  replay::saveScenario(sc, outPath);
  std::string noiseArgs;
  if (a.has("noise")) {
    noiseArgs = " --noise " + a.get("noise", "") + " --strength " +
                a.get("strength", "0.25");
  }
  std::printf(
      "bug manifested at seed %llu (%s) after %llu runs\n"
      "scenario saved to %s (%zu decisions)\n"
      "fingerprint %s (%s)\n"
      "replay with: mtt replay %s %s --seed %llu%s\n",
      static_cast<unsigned long long>(*found), foundStatus.c_str(),
      static_cast<unsigned long long>(scanned), outPath.c_str(),
      sc.schedule.size(), rec.signature.fingerprint().c_str(),
      std::string(to_string(rec.signature.kind)).c_str(), p->name().c_str(),
      outPath.c_str(), static_cast<unsigned long long>(*found),
      noiseArgs.c_str());
  triageScenario(a, sc, rec.signature, outPath);
  return 0;
}

int cmdReplay(const Args& a) {
  if (a.positional.size() < 2) return usage();
  auto p = suite::makeProgram(a.positional[0]);
  replay::Scenario sc = replay::loadScenario(a.positional[1]);
  if (!sc.program.empty() && sc.program != p->name()) {
    throw std::runtime_error("scenario " + a.positional[1] +
                             " was recorded for program '" + sc.program +
                             "', not '" + p->name() + "'");
  }
  rt::ReplayPolicy rep(sc.schedule);
  Args aa = a;
  aa.options["mode"] = "controlled";
  // The v2 scenario header carries the tool stack that recorded it, so a
  // bare `mtt replay <prog> <file>` reproduces exactly; explicit flags win.
  if (!a.has("noise") && sc.noise != "none" && !sc.noise.empty()) {
    aa.options["noise"] = sc.noise;
  }
  if (!a.has("strength")) {
    aa.options["strength"] = wire::formatDouble(sc.strength);
  }
  rt::RunOptions o = p->defaultRunOptions();
  o.seed = a.has("seed") ? a.getU64("seed", 0) : sc.seed;
  o.programName = p->name();
  rt::RunResult r =
      runWithFlags(aa, *p, o, std::make_unique<rt::PolicyRef>(rep));
  std::printf("status:  %s%s\noutcome: %s\n",
              std::string(to_string(r.status)).c_str(),
              rep.diverged() ? " (DIVERGED)" : " (exact)",
              p->outcome().c_str());
  return rep.diverged() ? 1 : 0;
}

// --- explore ---------------------------------------------------------------------

int cmdExplore(const Args& a) {
  if (a.positional.empty()) return usage();
  if (a.has("policy")) {
    // The explorer owns the schedule order (DFS over the choice tree); a
    // --policy here used to be silently ignored, which read as "explore
    // under pct" when it never was.  Reject it loudly instead.
    throw std::runtime_error(
        "explore enumerates schedules systematically and accepts no "
        "--policy; use 'mtt hunt' or 'mtt experiment' to search under a "
        "schedule policy");
  }
  auto p = suite::makeProgram(a.positional[0]);
  explore::ExploreOptions o;
  o.preemptionBound = static_cast<int>(
      static_cast<std::int64_t>(a.getU64("bound", static_cast<std::uint64_t>(-1))));
  if (!a.has("bound")) o.preemptionBound = -1;
  o.maxSchedules = a.getU64("budget", 20'000);
  o.randomWalk = a.has("random-walk");
  o.sleepSets = a.has("sleep-sets");
  // The shared flag table drives the search too: detectors (whose final
  // state describes the counterexample run), coverage models, noise — all
  // through the same RunSpec the other subcommands consume.
  experiment::RunSpec spec = runSpecFromArgs(a, "random");
  experiment::validateToolConfig(spec.tool);
  experiment::ToolStack tools = experiment::makeToolStack(spec.tool);
  o.tools = &tools;
  explore::ExploreResult r = explore::exploreSpec(spec, o);
  if (r.bugFound) {
    for (race::RaceDetector* det : tools.detectors()) {
      std::printf("detector %s: %zu warning(s) on the counterexample run\n",
                  det->name().c_str(),
                  static_cast<std::size_t>(det->warningCount()));
    }
    replay::Scenario sc;
    sc.program = p->name();
    sc.seed = 0;
    sc.policy = "explore";
    sc.noise = "none";
    sc.schedule = r.counterexample;
    // Sign the counterexample; the fingerprint names the default scenario
    // file, so exploring different bugs never overwrites earlier finds.
    triage::ProbeResult pr =
        triage::probeExact(sc.program, sc.schedule, triage::toolConfigOf(sc));
    std::string path = a.get(
        "out",
        sc.program + "." + pr.signature.fingerprint() + ".scenario");
    replay::saveScenario(sc, path);
    std::printf(
        "bug found at schedule %llu/%llu (%s)\n"
        "scenario saved to %s (%zu decisions)\n"
        "fingerprint %s (%s)\n",
        static_cast<unsigned long long>(r.firstBugSchedule),
        static_cast<unsigned long long>(r.schedules),
        std::string(to_string(r.bugResult.status)).c_str(), path.c_str(),
        sc.schedule.size(), pr.signature.fingerprint().c_str(),
        std::string(to_string(pr.signature.kind)).c_str());
    triageScenario(a, sc, pr.signature, path);
    return 0;
  }
  // DPOR never starts a sleep-blocked run; if one happens anyway, say so.
  std::string prunedNote;
  if (r.prunedRuns > 0) {
    prunedNote =
        ", " + std::to_string(r.prunedRuns) + " sleep-blocked runs discarded";
  }
  std::printf("no bug in %llu schedules%s%s\n",
              static_cast<unsigned long long>(r.schedules), prunedNote.c_str(),
              r.exhausted ? " (schedule space exhausted)" : " (budget)");
  return 1;
}

// --- shrink / corpus ---------------------------------------------------------

int cmdShrink(const Args& a) {
  if (a.positional.size() < 2) return usage();
  auto p = suite::makeProgram(a.positional[0]);
  replay::Scenario sc = replay::loadScenario(a.positional[1]);
  if (sc.program.empty()) sc.program = p->name();  // v1 files carry no name
  if (sc.program != p->name()) {
    throw std::runtime_error("scenario " + a.positional[1] +
                             " was recorded for program '" + sc.program +
                             "', not '" + p->name() + "'");
  }
  // Flag overrides for scenarios whose header doesn't describe the tool
  // stack that recorded them (v1 files).
  if (a.has("noise")) sc.noise = a.get("noise", "none");
  if (a.has("strength")) sc.strength = a.getF("strength", sc.strength);
  if (a.has("seed")) sc.seed = a.getU64("seed", sc.seed);

  triage::ShrinkOptions so;
  so.jobs = static_cast<std::size_t>(a.getU64("jobs", 1));
  so.maxValidations = a.getU64("max-validations", 50'000);
  so.allowNoiseStrip = !a.has("keep-noise");
  triage::ShrinkResult r = triage::shrinkScenario(sc, so);
  if (!r.reproduced) {
    std::printf(
        "scenario does not reproduce a failure under exact replay; "
        "nothing to shrink\n");
    return 1;
  }
  std::string outPath = a.get("out", minimizedPathFor(a.positional[1]));
  replay::saveScenario(r.minimized, outPath);
  std::printf(
      "signature:   %s (%s)\n"
      "decisions:   %zu -> %zu (%.0f%% removed)\n"
      "preemptions: %zu -> %zu\n"
      "validations: %llu across %llu accepted improvements%s\n"
      "replay:      %s\n"
      "minimized scenario saved to %s (%zu decisions)\n",
      r.signature.fingerprint().c_str(),
      std::string(to_string(r.signature.kind)).c_str(), r.original.size(),
      r.minimized.schedule.size(), r.removedRatio() * 100.0,
      r.originalPreemptions, r.minimizedPreemptions,
      static_cast<unsigned long long>(r.validations),
      static_cast<unsigned long long>(r.rounds),
      r.noiseStripped ? " (noise stripped)" : "",
      r.verifiedExact ? "exact (verified)" : "NOT exact", outPath.c_str(),
      r.minimized.schedule.size());
  // Varies from run to run, so it stays off stdout: the report above is the
  // same for any --jobs.
  if (r.speculative > 0) {
    std::fprintf(stderr, "speculative: %llu probes past the winners\n",
                 static_cast<unsigned long long>(r.speculative));
  }
  if (a.has("corpus")) {
    triage::Corpus corpus(a.get("corpus", "corpus"));
    triage::InsertResult ins =
        corpus.insert(r.minimized, r.signature, r.verifiedExact,
                      /*shrunk=*/true,
                      static_cast<std::uint64_t>(std::time(nullptr)));
    const char* what = ins.inserted ? "new entry"
                       : ins.replaced ? "improved witness"
                                      : "kept existing smaller witness";
    std::printf("corpus: %s %s/%s\n", what, r.minimized.program.c_str(),
                ins.fingerprint.c_str());
  }
  return 0;
}

int cmdCorpus(const Args& a) {
  if (a.positional.empty()) return usage();
  const std::string& verb = a.positional[0];
  triage::Corpus corpus(a.get("corpus", "corpus"));
  std::string filter = a.get("program", "");
  if (verb == "list") {
    std::vector<triage::CorpusEntry> es = corpus.entries(filter);
    TextTable t("scenario corpus @ " + corpus.root().string());
    t.header({"program", "fingerprint", "kind", "decisions", "preempt",
              "seed", "verified", "shrunk", "noise"});
    for (const auto& e : es) {
      t.row({e.program, e.fingerprint, e.kind, std::to_string(e.decisions),
             std::to_string(e.preemptions), std::to_string(e.seed),
             e.replayVerified ? "yes" : "no", e.shrunk ? "yes" : "no",
             e.noise});
    }
    t.print();
    std::printf("%zu entr%s\n", es.size(), es.size() == 1 ? "y" : "ies");
    return 0;
  }
  if (verb == "show") {
    if (a.positional.size() < 3) return usage();
    std::optional<triage::CorpusEntry> e =
        corpus.find(a.positional[1], a.positional[2]);
    if (!e) {
      std::fprintf(stderr, "mtt: no corpus entry %s/%s\n",
                   a.positional[1].c_str(), a.positional[2].c_str());
      return 1;
    }
    std::printf(
        "program:     %s\nfingerprint: %s\nkind:        %s\n"
        "decisions:   %llu\npreemptions: %llu\nseed:        %llu\n"
        "verified:    %s\nshrunk:      %s\nnoise:       %s\n"
        "witness:     %s\n\n%s\nreplay with: mtt replay %s %s\n",
        e->program.c_str(), e->fingerprint.c_str(), e->kind.c_str(),
        static_cast<unsigned long long>(e->decisions),
        static_cast<unsigned long long>(e->preemptions),
        static_cast<unsigned long long>(e->seed),
        e->replayVerified ? "yes" : "no", e->shrunk ? "yes" : "no",
        e->noise.c_str(), e->scenarioPath.c_str(), e->canonical.c_str(),
        e->program.c_str(), e->scenarioPath.c_str());
    return 0;
  }
  if (verb == "verify") {
    triage::VerifyOutcome v = corpus.verify(filter);
    for (const auto& f : v.failures) std::printf("FAIL %s\n", f.c_str());
    std::printf("verified %zu/%zu witness%s\n", v.passed, v.checked,
                v.checked == 1 ? "" : "es");
    return v.ok() ? 0 : 1;
  }
  if (verb == "gc") {
    std::size_t n = corpus.gc();
    std::printf("removed %zu corrupt or stale bucket%s\n", n,
                n == 1 ? "" : "s");
    return 0;
  }
  return usage();
}

// --- tracegen / analyze -------------------------------------------------------------

int cmdTracegen(const Args& a) {
  if (a.positional.empty()) return usage();
  std::filesystem::path dir = a.positional[0];
  std::filesystem::create_directories(dir);
  std::vector<std::string> programs = a.has("programs")
                                          ? splitList(a.get("programs", ""))
                                          : suite::allProgramNames();
  std::uint64_t seeds = a.getU64("seeds", 5);
  bool binary = a.has("binary");
  std::size_t written = 0;
  // One reused tool stack for the whole repository build: recorder first,
  // optional noise last.
  experiment::ToolStackBuilder b;
  b.traceRecorder();
  if (a.has("noise")) {
    noise::NoiseOptions no;
    no.strength = a.getF("strength", 0.25);
    b.noise(a.get("noise", "mixed"), no);
  }
  experiment::ToolStack tools = b.build();
  rt::Runtime& rt = tools.runtime(RuntimeMode::Controlled,
                                  std::make_unique<rt::RandomPolicy>());
  for (const auto& name : programs) {
    auto p = suite::makeProgram(name);
    for (std::uint64_t s = 0; s < seeds; ++s) {
      p->reset();
      tools.reset();
      rt::RunOptions o = p->defaultRunOptions();
      o.seed = s;
      o.programName = name;
      rt.run([&](rt::Runtime& rr) { p->body(rr); }, o);
      std::string ext = binary ? ".mttb" : ".trace";
      std::string path =
          (dir / (name + "." + std::to_string(s) + ext)).string();
      if (binary) {
        trace::writeBinaryFile(tools.traceRecorder()->trace(), path);
      } else {
        trace::writeTextFile(tools.traceRecorder()->trace(), path);
      }
      ++written;
    }
  }
  std::printf("wrote %zu traces to %s\n", written, dir.c_str());
  return 0;
}

int cmdAnalyze(const Args& a) {
  if (a.positional.empty()) return usage();
  TextTable t("offline trace analysis");
  t.header({"trace", "events", "eraser", "djit", "fasttrack", "hybrid",
            "lock-cycles", "annotated-bug-hit"});
  for (const auto& path : a.positional) {
    // Format auto-detected from the magic bytes, not the extension.
    trace::Trace tr = trace::readFile(path);
    std::vector<std::string> row = {
        std::filesystem::path(path).filename().string(),
        std::to_string(tr.events.size())};
    bool hit = false;
    for (const auto& d : race::detectorNames()) {
      auto det = race::makeDetector(d);
      trace::feed(tr, *det);
      row.push_back(std::to_string(det->warningCount()));
      hit = hit || det->foundAnnotatedBug();
    }
    deadlock::LockGraphDetector lg;
    trace::feed(tr, lg);
    row.push_back(std::to_string(lg.warnings().size()));
    row.push_back(hit ? "yes" : "no");
    t.row(std::move(row));
  }
  t.print();
  return 0;
}

// --- experiment / check --------------------------------------------------------------

// experiment --adaptive: one guided campaign replaces the per-heuristic
// fixed-budget rows — the bandit decides how the budget splits across
// heuristics and strengths, and --saturate stops when coverage stalls.
int cmdExperimentAdaptive(const Args& a) {
  experiment::RunSpec base = runSpecFromArgs(a, "rr");
  guide::GuideOptions go = guideOptionsFromArgs(a, a.getU64("runs", 100));
  if (a.has("noise")) go.heuristics = splitList(a.get("noise", ""));
  guide::GuideResult g = guide::runGuided(base, go);
  std::fputs(guide::guideReport(g, !a.has("no-timing")).c_str(), stdout);
  experiment::ReportOptions ro;
  ro.timing = !a.has("no-timing");
  std::fputs(experiment::findRateReport(
                 "adaptive experiment / " + base.programName, {g.result}, ro)
                 .c_str(),
             stdout);
  if (g_stopRequested.load()) {
    std::fprintf(stderr, "mtt: interrupted; the report above is partial\n");
    if (!go.farm.journalPath.empty()) {
      std::fprintf(stderr, "mtt: resume with: --resume %s\n",
                   go.farm.journalPath.c_str());
    }
    return kInterruptedExit;
  }
  return 0;
}

int cmdExperiment(const Args& a) {
  if (a.positional.empty()) return usage();
  if (a.has("adaptive")) return cmdExperimentAdaptive(a);
  std::vector<std::string> heuristics =
      a.has("noise") ? splitList(a.get("noise", ""))
                     : std::vector<std::string>{"none", "yield", "sleep",
                                                "mixed"};
  std::vector<std::string> detectors = splitList(a.get("detectors", ""));
  std::vector<experiment::ExperimentResult> rows;
  std::size_t supervised = 0;
  std::size_t quarantined = 0;
  bool interrupted = false;
  std::string journalHint;
  std::string abortDiagnostic;
  bool first = true;
  experiment::RunSpec base = runSpecFromArgs(a, "rr");
  for (const auto& h : heuristics) {
    experiment::ExperimentSpec spec;
    static_cast<experiment::RunSpec&>(spec) = base;
    spec.runs = a.getU64("runs", 100);
    spec.tool.noiseName = h;
    experiment::validateToolConfig(spec.tool);
    if (!farmRequested(a)) {
      rows.push_back(experiment::runExperiment(spec));
    } else {
      farm::FarmOptions fo = farmOptions(a);
      fo.jsonlAppend = !first;  // one stream across all campaign rows
      // One journal per campaign row: each heuristic is its own config, so
      // a multi-row experiment fans the journal out per heuristic.
      if (!fo.journalPath.empty() && heuristics.size() > 1) {
        fo.journalPath += "." + h;
      }
      farm::ExperimentCampaign ec = farm::runExperimentFarm(spec, fo);
      supervised += ec.campaign.timeouts + ec.campaign.crashes +
                    ec.campaign.infraErrors;
      quarantined += ec.campaign.quarantined;
      if (!ec.campaign.abortDiagnostic.empty()) {
        abortDiagnostic = ec.campaign.abortDiagnostic;
        journalHint = fo.journalPath;
        rows.push_back(std::move(ec.result));
        break;
      }
      rows.push_back(std::move(ec.result));
      if (g_stopRequested.load()) {
        interrupted = true;
        journalHint = fo.journalPath;
        break;
      }
    }
    first = false;
  }
  experiment::ReportOptions ro;
  ro.timing = !a.has("no-timing");
  std::fputs(experiment::findRateReport(
                 "prepared experiment / " + a.positional[0], rows, ro)
                 .c_str(),
             stdout);
  if (!detectors.empty()) {
    std::fputs(experiment::detectorReport(
                   "detector quality / " + a.positional[0], rows)
                   .c_str(),
               stdout);
  }
  if (supervised > 0) {
    std::fprintf(stderr,
                 "mtt: %zu run(s) ended under farm supervision "
                 "(timeout/crash/infra); see statusCounts or --jsonl\n",
                 supervised);
  }
  if (quarantined > 0) {
    std::fprintf(stderr,
                 "mtt: %zu quarantined run(s) reported from the journal "
                 "(infra-error; retry budget exhausted)\n",
                 quarantined);
  }
  if (!abortDiagnostic.empty()) {
    std::fprintf(stderr, "mtt: campaign aborted: %s\n",
                 abortDiagnostic.c_str());
    if (!journalHint.empty()) {
      std::fprintf(stderr, "mtt: resume with: --resume %s\n",
                   journalHint.c_str());
    }
    return 3;
  }
  if (interrupted) {
    std::fprintf(stderr, "mtt: interrupted; the report above is partial\n");
    if (!journalHint.empty()) {
      std::fprintf(stderr, "mtt: resume with: --resume %s\n",
                   journalHint.c_str());
    } else {
      std::fprintf(stderr,
                   "mtt: re-run with --journal FILE to make campaigns "
                   "resumable\n");
    }
    return kInterruptedExit;
  }
  return 0;
}

// --- fleet: serve / worker ---------------------------------------------------

fleet::FleetOptions fleetOptionsFromArgs(const Args& a) {
  fleet::FleetOptions fl;
  fl.listen = a.get("listen", "127.0.0.1:0");
  fl.leaseSize = static_cast<std::size_t>(a.getU64("lease-size", 16));
  fl.maxLeasesPerWorker = static_cast<std::size_t>(a.getU64("max-leases", 2));
  fl.leaseTimeout = std::chrono::milliseconds(a.getU64("lease-timeout-ms", 30000));
  fl.heartbeatInterval =
      std::chrono::milliseconds(a.getU64("heartbeat-ms", 1000));
  // The Coordinator constructor re-validates; failing here keeps the
  // message at the flag level before any socket is bound.
  if (fl.heartbeatInterval >= fl.leaseTimeout) {
    throw std::runtime_error(
        "--heartbeat-ms (" + std::to_string(fl.heartbeatInterval.count()) +
        ") must be strictly less than --lease-timeout-ms (" +
        std::to_string(fl.leaseTimeout.count()) +
        "): an idle worker must fit a heartbeat inside the lease timeout");
  }
  fl.noProgressTimeout =
      std::chrono::milliseconds(a.getU64("degraded-timeout-ms", 0));
  fl.quarantineAfter =
      static_cast<std::size_t>(a.getU64("quarantine-after", 3));
  fl.indexGiveUp = static_cast<std::size_t>(a.getU64("index-give-up", 3));
  fl.onListen = [](const std::string& addr) {
    std::fprintf(stderr, "[fleet] listening on %s\n", addr.c_str());
    std::fprintf(stderr, "[fleet] connect workers with: mtt worker --connect %s\n",
                 addr.c_str());
  };
  fl.farm = farmOptions(a);
  return fl;
}

void fleetEpilogue(const fleet::FleetCounters& fc) {
  std::fprintf(
      stderr,
      "[fleet] workers: %zu connected, %zu quarantined; leases: %zu granted, "
      "%zu reassigned; records: %llu streamed, %llu duplicate(s) dropped; "
      "wire: %.2f MiB in, %.2f MiB out\n",
      fc.workersConnected, fc.workersQuarantined, fc.leasesGranted,
      fc.leasesReassigned, static_cast<unsigned long long>(fc.recordsStreamed),
      static_cast<unsigned long long>(fc.duplicatesDropped),
      static_cast<double>(fc.bytesReceived) / (1024.0 * 1024.0),
      static_cast<double>(fc.bytesSent) / (1024.0 * 1024.0));
}

// serve --adaptive: runGuided with its batches leased to fleet workers.
// The batch width (and with it the bandit decision sequence) is --jobs, so
// the timing-free report byte-matches a local guided run with the same
// --jobs regardless of how many workers serve the campaign.
int cmdServeAdaptive(const Args& a) {
  if (a.has("corpus")) {
    throw std::runtime_error(
        "serve --adaptive cannot use --corpus: schedule-mutation arms "
        "require in-process execution and fleet workers have no corpus");
  }
  experiment::RunSpec base = runSpecFromArgs(a, "rr");
  // runGuided applies this default internally; workers must see the same
  // tool config, so pin it before the spec crosses the wire.
  if (base.tool.coverage.empty()) base.tool.coverage = "switch-pair";
  guide::GuideOptions go = guideOptionsFromArgs(a, a.getU64("runs", 100));
  if (a.has("noise")) go.heuristics = splitList(a.get("noise", ""));
  fleet::FleetOptions fl = fleetOptionsFromArgs(a);
  fleet::Coordinator coordinator(base, fl);
  go.batchRunner = fleet::makeGuideBatchRunner(coordinator, false);
  guide::GuideResult g = guide::runGuided(base, go);
  coordinator.shutdown();
  std::fputs(guide::guideReport(g, !a.has("no-timing")).c_str(), stdout);
  experiment::ReportOptions ro;
  ro.timing = !a.has("no-timing");
  std::fputs(experiment::findRateReport(
                 "adaptive experiment / " + base.programName, {g.result}, ro)
                 .c_str(),
             stdout);
  fleetEpilogue(coordinator.counters());
  if (g_stopRequested.load()) {
    std::fprintf(stderr, "mtt: interrupted; the report above is partial\n");
    if (!go.farm.journalPath.empty()) {
      std::fprintf(stderr, "mtt: resume with: --resume %s\n",
                   go.farm.journalPath.c_str());
    }
    return kInterruptedExit;
  }
  return 0;
}

// serve: the coordinator side of a distributed campaign.  The spec flags
// mean exactly what they mean for `experiment` with a single heuristic;
// workers connect with `mtt worker --connect ADDR` and the folded report is
// byte-identical to the single-machine run of the same spec.
int cmdServe(const Args& a) {
  if (a.positional.empty()) return usage();
  if (a.has("adaptive")) return cmdServeAdaptive(a);
  experiment::ExperimentSpec spec;
  static_cast<experiment::RunSpec&>(spec) = runSpecFromArgs(a, "rr");
  spec.runs = a.getU64("runs", 100);
  experiment::validateToolConfig(spec.tool);
  fleet::FleetOptions fl = fleetOptionsFromArgs(a);
  farm::ExperimentCampaign ec = fleet::runExperimentFleet(spec, fl);
  experiment::ReportOptions ro;
  ro.timing = !a.has("no-timing");
  std::fputs(experiment::findRateReport(
                 "prepared experiment / " + a.positional[0], {ec.result}, ro)
                 .c_str(),
             stdout);
  const std::size_t supervisedRuns =
      ec.campaign.timeouts + ec.campaign.crashes + ec.campaign.infraErrors;
  if (supervisedRuns > 0) {
    std::fprintf(stderr,
                 "mtt: %zu run(s) ended under fleet supervision "
                 "(timeout/crash/infra); see statusCounts or --jsonl\n",
                 supervisedRuns);
  }
  fleetEpilogue(fleet::lastFleetCounters());
  if (!ec.campaign.abortDiagnostic.empty()) {
    std::fprintf(stderr, "mtt: campaign aborted: %s\n",
                 ec.campaign.abortDiagnostic.c_str());
    if (!fl.farm.journalPath.empty()) {
      std::fprintf(stderr, "mtt: resume with: --resume %s\n",
                   fl.farm.journalPath.c_str());
    }
    return 3;
  }
  if (g_stopRequested.load()) {
    std::fprintf(stderr, "mtt: interrupted; the report above is partial\n");
    if (!fl.farm.journalPath.empty()) {
      std::fprintf(stderr, "mtt: resume with: --resume %s\n",
                   fl.farm.journalPath.c_str());
    }
    return kInterruptedExit;
  }
  return 0;
}

// worker: the executor side.  Connects, executes leased runs, exits when
// the coordinator closes the campaign.
int cmdWorker(const Args& a) {
  fleet::WorkerOptions wo;
  wo.connect = a.get("connect", "");
  if (wo.connect.empty()) {
    std::fprintf(stderr, "mtt worker requires --connect HOST:PORT or "
                         "--connect unix:/path.sock\n");
    return 2;
  }
  wo.connectTimeout =
      std::chrono::milliseconds(a.getU64("connect-timeout-ms", 10000));
  wo.maxRetries = static_cast<std::size_t>(a.getU64("retries", 2));
  wo.heartbeatInterval =
      std::chrono::milliseconds(a.getU64("heartbeat-ms", 1000));
  // A worker does not know its coordinator's lease timeout, but when the
  // operator states it, validate the pair here too: a heartbeat cadence
  // that cannot fit inside the timeout gets this worker quarantined while
  // perfectly healthy.
  if (a.has("lease-timeout-ms")) {
    const auto leaseTimeout =
        std::chrono::milliseconds(a.getU64("lease-timeout-ms", 30000));
    if (wo.heartbeatInterval >= leaseTimeout) {
      std::fprintf(stderr,
                   "mtt: --heartbeat-ms (%lld) must be strictly less than "
                   "--lease-timeout-ms (%lld)\n",
                   static_cast<long long>(wo.heartbeatInterval.count()),
                   static_cast<long long>(leaseTimeout.count()));
      return 2;
    }
  }
  wo.reconnect = a.has("reconnect");
  wo.reconnectAttempts =
      static_cast<std::size_t>(a.getU64("reconnect-attempts", 5));
  wo.memLimitMb = static_cast<std::size_t>(a.getU64("worker-mem-mb", 0));
  wo.cpuLimitSec = static_cast<std::size_t>(a.getU64("worker-cpu-s", 0));
  installStopHandlers();
  wo.stopFlag = &g_stopRequested;
  fleet::WorkerStats ws = fleet::runWorker(wo);
  std::fprintf(stderr,
               "[fleet] worker done: %llu lease(s), %llu run(s), %llu "
               "record(s) sent, %llu reconnect(s), %.2f MiB out — %s\n",
               static_cast<unsigned long long>(ws.leases),
               static_cast<unsigned long long>(ws.runsExecuted),
               static_cast<unsigned long long>(ws.recordsSent),
               static_cast<unsigned long long>(ws.reconnects),
               static_cast<double>(ws.bytesSent) / (1024.0 * 1024.0),
               ws.exitReason.c_str());
  return g_stopRequested.load() ? kInterruptedExit : 0;
}

// chaos: run one campaign through the fleet under an injected fault plan
// and verify the chaos invariant — complete byte-identically, or terminate
// promptly with a resumable journal and a diagnostic naming the fault.
int cmdChaos(const Args& a) {
  if (a.positional.empty()) return usage();
  experiment::ExperimentSpec spec;
  static_cast<experiment::RunSpec&>(spec) = runSpecFromArgs(a, "rr");
  spec.runs = a.getU64("runs", 60);
  experiment::validateToolConfig(spec.tool);
  chaos::ChaosOptions co;
  co.plan = a.get("plan", "sever");
  co.seed = a.getU64("chaos-seed", 1);
  co.workers = static_cast<std::size_t>(a.getU64("workers", 2));
  co.leaseSize = static_cast<std::size_t>(a.getU64("lease-size", 7));
  co.heartbeat = std::chrono::milliseconds(a.getU64("heartbeat-ms", 200));
  co.leaseTimeout =
      std::chrono::milliseconds(a.getU64("lease-timeout-ms", 2000));
  co.noProgressTimeout =
      std::chrono::milliseconds(a.getU64("degraded-timeout-ms", 3000));
  co.wallCap = std::chrono::milliseconds(a.getU64("wall-cap-ms", 60000));
  co.workDir = a.get("dir", "");
  co.keepArtifacts = a.has("keep");
  if (co.heartbeat >= co.leaseTimeout) {
    throw std::runtime_error(
        "--heartbeat-ms (" + std::to_string(co.heartbeat.count()) +
        ") must be strictly less than --lease-timeout-ms (" +
        std::to_string(co.leaseTimeout.count()) + ")");
  }
  chaos::ChaosReport report = chaos::runChaosCampaign(spec, co);
  std::fputs(chaos::renderChaosReport(report).c_str(), stdout);
  return report.passed() ? 0 : 1;
}

int cmdCheck(const Args& a) {
  if (a.positional.empty()) return usage();
  auto p = suite::makeProgram(a.positional[0]);
  const model::Program* ir = p->irModel();
  if (ir == nullptr) {
    std::printf("%s has no IR model; static checking unavailable\n",
                p->name().c_str());
    return 1;
  }
  model::EscapeResult esc = model::escapeAnalysis(*ir);
  std::printf("escape analysis: %zu shared, %zu thread-local variables\n",
              esc.sharedVars.size(), esc.localVars.size());
  for (const auto& w : model::staticLockset(*ir)) {
    std::printf("static race:     %s (%s)\n", w.varName.c_str(),
                w.detail.c_str());
  }
  for (const auto& w : model::staticLockGraph(*ir)) {
    std::printf("static deadlock: %s\n", w.detail.c_str());
  }
  model::CheckOptions o;
  o.mode = model::SearchMode::StatefulDfs;
  model::CheckResult r = model::check(*ir, o);
  std::printf(
      "model checking:  %llu states, %llu transitions, %llu assert "
      "violations, %llu deadlocks -> %s\n",
      static_cast<unsigned long long>(r.statesVisited),
      static_cast<unsigned long long>(r.transitions),
      static_cast<unsigned long long>(r.assertViolations),
      static_cast<unsigned long long>(r.deadlocks),
      r.foundBug() ? "BUG" : (r.exhausted ? "verified" : "budget exceeded"));
  if (r.firstViolation) {
    std::printf("\ncounterexample:\n%s",
                model::formatCounterexample(*ir, *r.firstViolation).c_str());
  }
  return r.foundBug() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  suite::registerBuiltins();
  std::string cmd = argv[1];
  Args a = parseArgs(argc, argv, 2);
  try {
    if (cmd == "list") return cmdList(parseArgs(argc, argv, 2));
    if (cmd == "describe") return cmdDescribe(a);
    if (cmd == "run") return cmdRun(a);
    if (cmd == "hunt") return cmdHunt(a);
    if (cmd == "replay") return cmdReplay(a);
    if (cmd == "explore") return cmdExplore(a);
    if (cmd == "shrink") return cmdShrink(a);
    if (cmd == "corpus") return cmdCorpus(a);
    if (cmd == "tracegen") return cmdTracegen(a);
    if (cmd == "analyze") return cmdAnalyze(a);
    if (cmd == "experiment") return cmdExperiment(a);
    if (cmd == "serve") return cmdServe(a);
    if (cmd == "worker") return cmdWorker(a);
    if (cmd == "chaos") return cmdChaos(a);
    if (cmd == "check") return cmdCheck(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mtt: %s\n", e.what());
    return 2;
  }
  return usage();
}
