#include "guide/guide.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>

#include "core/atomic_file.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "core/wire.hpp"
#include "farm/journal.hpp"
#include "fleet/local.hpp"
#include "replay/replay.hpp"
#include "triage/corpus.hpp"
#include "triage/signature.hpp"

namespace mtt::guide {

namespace {

std::string formatStrength(double s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", s);
  return buf;
}

}  // namespace

std::string Arm::label() const {
  // Policy prefix only when the arm overrides the base policy, so the
  // default arm set's labels (and thus campaign digests and decision logs)
  // are unchanged by the policy dimension's existence.
  std::string out;
  if (!policy.empty()) out += policy + "/";
  out += noise + "@" + formatStrength(strength);
  if (!mutationFingerprint.empty()) out += "~" + mutationFingerprint;
  return out;
}

// --- corpus-seeded schedule mutation ---------------------------------------

void MutatedReplayPolicy::onRunStart(std::uint64_t seed) {
  // A seed-derived prefix length: 0 (pure random run) up to the full
  // witness.  Deriving from the run seed keeps the whole run a pure
  // function of (arm, seed), which is what the decision log replays.
  Rng rng(mix_seed(seed, 0x6d757461ull));  // "muta"
  const std::size_t n = witness_ ? witness_->decisions.size() : 0;
  prefixLen_ = n == 0 ? 0 : static_cast<std::size_t>(rng.below(n + 1));
  replaying_ = prefixLen_ > 0;
  step_ = 0;
  tail_.onRunStart(seed);
}

ThreadId MutatedReplayPolicy::pick(const rt::PickContext& ctx) {
  if (replaying_ && step_ < prefixLen_) {
    const rt::Decision& d = witness_->decisions[step_];
    if (d.isThread()) {
      auto want = static_cast<ThreadId>(d.value);
      if (std::find(ctx.enabled.begin(), ctx.enabled.end(), want) !=
          ctx.enabled.end()) {
        ++step_;
        return want;
      }
    }
    // Divergence (a store pick where the run wants a thread, or a thread no
    // longer enabled — e.g. different noise decisions upstream): abandon the
    // prefix and free-run — the mutation already did its job of steering
    // the run into the witness's neighborhood.
    replaying_ = false;
  }
  return tail_.pick(ctx);
}

std::uint32_t MutatedReplayPolicy::pickStore(const rt::StorePickContext& ctx) {
  if (replaying_ && step_ < prefixLen_) {
    const rt::Decision& d = witness_->decisions[step_];
    if (d.isStore() && d.value < ctx.options.size()) {
      ++step_;
      return d.value;
    }
    replaying_ = false;
  }
  return tail_.pickStore(ctx);
}

// --- arms ------------------------------------------------------------------

std::vector<Arm> buildArms(const experiment::RunSpec& base,
                           const GuideOptions& opts) {
  std::vector<Arm> arms;
  // Policy dimension: an empty list means a single implicit entry for the
  // base spec's policy, so campaigns that never pass --policies get exactly
  // the historical arm set (same labels, same digests, same logs).
  std::vector<std::string> policies = opts.policies;
  if (policies.empty()) policies.push_back("");
  for (const std::string& p : policies) {
    for (const std::string& h : opts.heuristics) {
      for (double s : opts.strengths) {
        Arm a;
        a.policy = p;
        a.noise = h;
        a.strength = s;
        arms.push_back(std::move(a));
      }
    }
  }
  if (!opts.corpusDir.empty() && opts.maxMutationArms > 0) {
    triage::Corpus corpus(opts.corpusDir);
    std::size_t added = 0;
    // entries() is sorted by (program, fingerprint), so the arm set is a
    // deterministic function of the corpus contents.
    for (const triage::CorpusEntry& e : corpus.entries(base.programName)) {
      if (added >= opts.maxMutationArms) break;
      try {
        replay::Scenario sc = replay::loadScenario(e.scenarioPath.string());
        if (sc.schedule.empty()) continue;
        Arm a;
        a.noise = e.noise.empty() ? "none" : e.noise;
        a.strength = e.strength;
        a.mutationFingerprint = e.fingerprint;
        a.witness = std::make_shared<rt::Schedule>(std::move(sc.schedule));
        arms.push_back(std::move(a));
        ++added;
      } catch (const std::exception&) {
        // Unloadable witness: skip the bucket, keep hunting.
      }
    }
  }
  return arms;
}

std::unique_ptr<rt::SchedulePolicy> makeArmPolicy(
    const Arm& arm, const std::string& basePolicy) {
  if (arm.witness) return std::make_unique<MutatedReplayPolicy>(arm.witness);
  return experiment::makePolicy(arm.policy.empty() ? basePolicy : arm.policy);
}

experiment::RunSpec armSpec(const experiment::RunSpec& base, const Arm& arm) {
  experiment::RunSpec spec = base;
  spec.tool.noiseName = arm.noise;
  spec.tool.noiseOpts.strength = arm.strength;
  if (!arm.policy.empty()) spec.tool.policy = arm.policy;
  if (arm.witness) {
    spec.policyFactory = [w = arm.witness] {
      return std::unique_ptr<rt::SchedulePolicy>(
          std::make_unique<MutatedReplayPolicy>(w));
    };
  }
  return spec;
}

// --- failure fingerprints --------------------------------------------------

std::string observationFingerprint(const experiment::RunObservation& o) {
  // Program failures only: step-limit is a budget artifact and infra-error
  // a harness problem — neither identifies a bug, so neither earns reward
  // nor stops a hunt.
  const bool failed = o.manifested || o.status == "deadlock" ||
                      o.status == "assert-failed" || o.status == "timeout" ||
                      o.status == "crashed";
  if (!failed) return "";
  std::string text = o.status;
  text += '|';
  if (o.manifested) {
    text += "oracle:";
    text += triage::normalizeTokens(o.outcome);
  }
  text += '|';
  text += triage::normalizeTokens(o.failureMessage);
  return wire::hex16(farm::journalDigest(text));
}

// --- decision log ----------------------------------------------------------
//
// Text, append-only, torn-tail tolerant (same discipline as the journal);
// the grammar is in guide.hpp (DecisionLog).

namespace {

std::string assignmentLine(std::uint64_t idx, std::size_t arm,
                           std::uint64_t seed) {
  return "A " + std::to_string(idx) + " " + std::to_string(arm) + " " +
         std::to_string(seed) + "\n";
}

}  // namespace

DecisionLog parseDecisionLog(std::string_view text, const std::string& path) {
  auto corrupt = [&path](const std::string& why) {
    return std::runtime_error("guide: corrupt decision log " + path + ": " +
                              why);
  };
  constexpr std::string_view kMagic = "MTTGUIDE 1";
  // '\n' commits a line: the unterminated tail is a torn append.
  const wire::Lines lines = wire::splitLines(text);
  const std::vector<std::string_view>& done = lines.complete;
  auto fields = [&done](std::size_t i) {
    return wire::splitFields(done[i], ' ');
  };
  // The header lands in one atomic write, so committed lines running out
  // inside it mean the log recorded nothing: an empty log, flagged torn.
  DecisionLog torn;
  torn.tornTail = true;
  if (done.empty() ? !kMagic.starts_with(lines.tail) : done[0] != kMagic) {
    throw corrupt("missing MTTGUIDE 1 header");
  }
  if (done.size() < 3) return torn;
  DecisionLog log;
  log.tornTail = !lines.tail.empty();
  const std::vector<std::string_view> cf = fields(1);
  if (cf.size() != 2 || cf[0] != "config" ||
      !wire::parseHex16(cf[1], log.digest)) {
    throw corrupt("bad config line");
  }
  const std::vector<std::string_view> af = fields(2);
  std::uint64_t nArms = 0;
  if (af.size() != 2 || af[0] != "arms" || !wire::parseU64(af[1], nArms) ||
      nArms == 0 || nArms > 4096) {
    throw corrupt("bad arms line");
  }
  if (done.size() < 3 + nArms) return torn;
  std::uint64_t idx = 0;
  for (std::size_t i = 0; i < nArms; ++i) {
    const std::vector<std::string_view> f = fields(3 + i);
    if (f.size() != 3 || f[0] != "arm" || !wire::parseU64(f[1], idx) ||
        idx != i) {
      throw corrupt("bad arm line " + std::to_string(i));
    }
    log.labels.emplace_back(f[2]);
  }
  // Every committed assignment must parse whole; only the tail may be torn.
  for (std::size_t i = 3 + nArms; i < done.size(); ++i) {
    const std::vector<std::string_view> f = fields(i);
    std::uint64_t arm = 0, seed = 0;
    if (f.size() != 4 || f[0] != "A" || !wire::parseU64(f[1], idx) ||
        !wire::parseU64(f[2], arm) || !wire::parseU64(f[3], seed) ||
        arm >= nArms) {
      throw corrupt("bad assignment line " + std::to_string(i + 1));
    }
    log.assignments.emplace(
        idx, std::make_pair(static_cast<std::size_t>(arm), seed));
  }
  return log;
}

std::string renderDecisionLog(
    std::uint64_t digest, const std::vector<std::string>& labels,
    const std::map<std::uint64_t, std::pair<std::size_t, std::uint64_t>>&
        assignments) {
  std::string out = "MTTGUIDE 1\nconfig " + wire::hex16(digest) +
                    "\narms " + std::to_string(labels.size()) + "\n";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    out += "arm " + std::to_string(i) + " " + labels[i] + "\n";
  }
  for (const auto& [idx, as] : assignments) {
    out += assignmentLine(idx, as.first, as.second);
  }
  return out;
}

namespace {

DecisionLog loadDecisionLog(const std::string& path) {
  std::string text;
  if (!core::readFile(path, text)) {
    throw std::runtime_error("guide: cannot open decision log " + path);
  }
  return parseDecisionLog(text, path);
}

void checkLogMatches(const DecisionLog& log, std::uint64_t digest,
                     const std::vector<Arm>& arms, const std::string& path) {
  if (log.labels.empty()) {
    throw std::runtime_error("guide: decision log " + path +
                             " was cut before its header completed");
  }
  if (log.digest != digest) {
    throw std::runtime_error(
        "guide: decision log " + path +
        " was recorded under a different campaign config (digest " +
        wire::hex16(log.digest) + ", expected " + wire::hex16(digest) + ")");
  }
  if (log.labels.size() != arms.size()) {
    throw std::runtime_error("guide: decision log " + path + " has " +
                             std::to_string(log.labels.size()) +
                             " arms, campaign has " +
                             std::to_string(arms.size()));
  }
  for (std::size_t i = 0; i < arms.size(); ++i) {
    if (log.labels[i] != arms[i].label()) {
      throw std::runtime_error("guide: decision log " + path + " arm " +
                               std::to_string(i) + " is " + log.labels[i] +
                               ", campaign built " + arms[i].label());
    }
  }
}

/// Append-only decision-log writer.  open() rewrites the file cleanly
/// (header + already-known assignments) via atomicWriteFile — repairing a
/// possible torn tail before appending, the same move the journal makes on
/// resume — then reopens it for appends, each fflushed.
class LogWriter {
 public:
  ~LogWriter() { close(); }

  void open(const std::string& path, std::uint64_t digest,
            const std::vector<Arm>& arms,
            const std::map<std::uint64_t,
                           std::pair<std::size_t, std::uint64_t>>& existing) {
    close();
    std::vector<std::string> labels;
    for (const Arm& a : arms) labels.push_back(a.label());
    core::atomicWriteFile(path, renderDecisionLog(digest, labels, existing));
    f_ = std::fopen(path.c_str(), "ab");
    if (f_ == nullptr) {
      throw std::runtime_error("guide: cannot open decision log " + path +
                               " for append");
    }
  }

  void append(std::uint64_t idx, std::size_t arm, std::uint64_t seed) {
    if (f_ == nullptr) return;
    const std::string line = assignmentLine(idx, arm, seed);
    std::fwrite(line.data(), 1, line.size(), f_);
    std::fflush(f_);
  }

  void close() {
    if (f_ != nullptr) {
      std::fclose(f_);
      f_ = nullptr;
    }
  }

  bool isOpen() const { return f_ != nullptr; }

 private:
  std::FILE* f_ = nullptr;
};

}  // namespace

// --- the guided campaign ---------------------------------------------------

GuideResult runGuided(const experiment::RunSpec& baseIn,
                      const GuideOptions& opts) {
  experiment::RunSpec base = baseIn;
  if (base.tool.coverage.empty()) base.tool.coverage = "switch-pair";
  experiment::validateToolConfig(base.tool);
  if (opts.budget == 0) {
    throw std::runtime_error("guide: budget must be > 0");
  }
  // Fail fast on malformed policy-arm specs: makePolicy throws the same
  // grammar-naming error a per-run failure would, but before any run starts.
  for (const std::string& p : opts.policies) {
    if (!p.empty()) experiment::makePolicy(p);
  }

  std::vector<Arm> arms = buildArms(base, opts);
  if (arms.empty()) {
    throw std::runtime_error(
        "guide: no arms — configure at least one heuristic and strength, "
        "or a corpus with entries for the program");
  }
  if (opts.batchRunner) {
    for (const Arm& a : arms) {
      if (a.witness != nullptr) {
        throw std::runtime_error(
            "guide: schedule-mutation arms require in-process execution — "
            "fleet workers have no corpus (drop --corpus or the "
            "batch runner)");
      }
    }
  }

  // The campaign identity: program, tool config, seed base, arm set.  The
  // digest guards both the journal and the decision log against resuming
  // or replaying under a different configuration.
  std::string cfgText =
      "guide|" + base.programName + "|" + base.tool.label() +
      "|seed:" + std::to_string(base.seedBase) + "|arms:";
  for (const Arm& a : arms) {
    cfgText += a.label();
    cfgText += ',';
  }
  const std::uint64_t digest = farm::journalDigest(cfgText);

  // runIndex -> (arm, seed): replayed from a log, loaded from a resumed
  // campaign's log, or decided live by the bandit.
  std::map<std::uint64_t, std::pair<std::size_t, std::uint64_t>> assigned;
  std::uint64_t budget = opts.budget;
  const bool replayMode = !opts.replayLogPath.empty();
  if (replayMode) {
    DecisionLog log = loadDecisionLog(opts.replayLogPath);
    checkLogMatches(log, digest, arms, opts.replayLogPath);
    assigned = std::move(log.assignments);
    // A recording that stopped early (first find, saturation) logged fewer
    // assignments than its budget; replay exactly the recorded prefix.
    std::uint64_t recorded = 0;
    while (assigned.find(recorded) != assigned.end()) ++recorded;
    if (recorded == 0) {
      throw std::runtime_error("guide: decision log " + opts.replayLogPath +
                               " has no assignments");
    }
    budget = std::min(budget, recorded);
  }

  // Journal resume: the guide owns the journal (inner farm batches never
  // journal), so one file spans the whole adaptive campaign.
  const std::string& journalPath = opts.farm.journalPath;
  std::map<std::uint64_t, experiment::RunObservation> journaled;
  bool resuming = false;
  if (!journalPath.empty() && opts.farm.resume &&
      std::filesystem::exists(journalPath)) {
    farm::JournalData jd = farm::loadJournal(journalPath);
    if (jd.configDigest != digest) {
      throw std::runtime_error(
          "guide: journal " + journalPath +
          " belongs to a different campaign config (digest " +
          wire::hex16(jd.configDigest) + ", expected " + wire::hex16(digest) +
          ")");
    }
    if (jd.total != budget) {
      throw std::runtime_error(
          "guide: journal " + journalPath + " was written for budget " +
          std::to_string(jd.total) + "; resume with the same budget");
    }
    if (jd.tornTail) {
      farm::rewriteJournal(journalPath, digest, budget, jd.records);
    }
    for (auto& r : jd.records) journaled.emplace(r.runIndex, std::move(r));
    resuming = !journaled.empty();
  }

  std::string logPath = opts.decisionLogPath;
  if (logPath.empty() && !journalPath.empty()) logPath = journalPath + ".arms";
  LogWriter logWriter;
  if (!replayMode) {
    if (resuming) {
      // Journaled records need their original arms to rebuild the bandit
      // state; without the log the campaign identity is lost.
      if (logPath.empty() || !std::filesystem::exists(logPath)) {
        throw std::runtime_error(
            "guide: resuming a guided journal requires its decision log (" +
            (logPath.empty() ? std::string("none configured") : logPath) +
            ")");
      }
      DecisionLog log = loadDecisionLog(logPath);
      checkLogMatches(log, digest, arms, logPath);
      assigned = std::move(log.assignments);
      for (const auto& [idx, rec] : journaled) {
        (void)rec;
        if (assigned.find(idx) == assigned.end()) {
          throw std::runtime_error("guide: journaled run " +
                                   std::to_string(idx) +
                                   " has no arm in decision log " + logPath);
        }
      }
    }
    if (!logPath.empty()) logWriter.open(logPath, digest, arms, assigned);
  } else {
    logPath.clear();  // replay consults a log; it does not write one
  }

  farm::JournalWriter journal;
  if (!journalPath.empty()) {
    journal.open(journalPath, digest, budget, /*append=*/resuming);
  }

  // One tool-stack pool per distinct heuristic: strength rebinds per run
  // via NoiseMaker::setOptions, so arms share stacks instead of each
  // owning a pool.  Validate every derived config up front so a corpus
  // entry with an unknown heuristic fails fast, not per-run.
  std::map<std::string, std::unique_ptr<experiment::ToolStackPool>> pools;
  for (const Arm& a : arms) {
    if (pools.find(a.noise) != pools.end()) continue;
    experiment::ToolConfig cfg = base.tool;
    cfg.noiseName = a.noise;
    experiment::validateToolConfig(cfg);
    pools.emplace(a.noise,
                  std::make_unique<experiment::ToolStackPool>(
                      [cfg] { return experiment::makeToolStack(cfg); }));
  }

  Ucb1 bandit(arms.size(), opts.exploration);
  UnseenMass unseen;
  std::map<std::string, std::uint64_t> taskRuns;

  GuideResult g;
  g.budget = budget;
  g.result.programName = base.programName;
  g.result.toolLabel = base.tool.label() + "+guide";
  g.decisionLogPath = logPath;

  std::size_t quiet = 0;
  bool stopped = false;
  const std::size_t minRuns =
      std::max<std::size_t>(2 * arms.size(), opts.quietRuns);

  // The guide owns the JSONL stream as it owns the journal: each fresh
  // record is streamed as it folds, under its campaign-global run index (a
  // resumed campaign appends to the stream its first invocation wrote).
  std::ofstream jsonl;
  if (!opts.farm.jsonlPath.empty()) {
    jsonl.open(opts.farm.jsonlPath, opts.farm.jsonlAppend || resuming
                                        ? std::ios::app
                                        : std::ios::trunc);
    if (!jsonl) {
      throw std::runtime_error("guide: cannot open JSONL path " +
                               opts.farm.jsonlPath);
    }
  }

  // Folds one record (journaled or fresh) in global index order.  All
  // campaign state — bandit rewards, coverage, fingerprints, stopping
  // rules — advances only here, which is what makes the folded prefix a
  // pure function of (records, assignments) independent of batching.
  auto fold = [&](const experiment::RunObservation& obs, std::size_t armIdx,
                  bool fromJournal) {
    if (!fromJournal && journal.isOpen()) journal.append(obs);
    if (!fromJournal && jsonl.is_open()) {
      jsonl << farm::toJson(obs) << std::endl;
    }
    if (fromJournal) ++g.resumed;
    g.records.push_back(obs);
    experiment::accumulate(g.result, obs);
    if (obs.status == "timeout") ++g.timeouts;
    if (obs.status == "crashed") ++g.crashes;
    if (obs.status == "infra-error") ++g.infraErrors;

    std::size_t novel = 0;
    if (!obs.coverage.empty()) {
      try {
        coverage::Snapshot snap = coverage::Snapshot::decode(obs.coverage);
        novel = snap.novelty(g.coverage);
        for (const std::string& t : snap.covered) {
          unseen.observe(++taskRuns[t]);
        }
        g.coverage.merge(snap);
      } catch (const std::exception&) {
        // A corrupt snapshot (crashed worker mid-pipe) earns no reward.
      }
    }
    const std::string fp = observationFingerprint(obs);
    const bool newFp = !fp.empty() && g.fingerprints.insert(fp).second;
    const double reward = (novel > 0 || newFp) ? 1.0 : 0.0;
    bandit.reward(armIdx, reward);
    ArmStats& st = bandit.statsOf(armIdx);
    if (novel > 0) ++st.novelCoverageRuns;
    if (newFp) ++st.novelFingerprintRuns;
    if (obs.manifested) ++st.manifestations;
    quiet = reward > 0.0 ? 0 : quiet + 1;

    if (!fp.empty()) {
      if (!g.found) {
        g.found = true;
        g.firstFindRun = obs.runIndex;
        g.firstFindSeed = obs.seed;
        g.firstFindArm = armIdx;
        g.firstFindFingerprint = fp;
      }
      if (opts.stopOnFirstFind) {
        stopped = true;
        g.stoppedEarly = true;
      }
    }
    if (!opts.targetFingerprints.empty() && !g.targetReached) {
      bool all = true;
      for (const std::string& t : opts.targetFingerprints) {
        if (g.fingerprints.find(t) == g.fingerprints.end()) {
          all = false;
          break;
        }
      }
      if (all) {
        g.targetReached = true;
        stopped = true;
        g.stoppedEarly = true;
      }
    }
    if (opts.saturate && !stopped) {
      if (g.coverage.closed) {
        // A declared universe is saturated exactly when it is covered —
        // never earlier.
        if (g.coverage.complete()) {
          g.saturated = true;
          g.saturatedAtRun = g.records.size();
          stopped = true;
        }
      } else if (g.records.size() >= minRuns && quiet >= opts.quietRuns &&
                 unseen.estimate() <= opts.unseenMassThreshold) {
        g.saturated = true;
        g.saturatedAtRun = g.records.size();
        stopped = true;
      }
    }
  };

  // Fixed index-aligned batches of one worker-pool width each.  Arms are
  // assigned for the whole batch up front (a provisional pull each, so the
  // batch spreads across arms), a BatchRunner executes the non-journaled
  // runs, and the results fold back in global index order.  Batch
  // boundaries depend on --jobs, but the fold sequence does not — all
  // determinism claims are about the folded prefix.
  const std::uint64_t batchSize =
      std::max<std::size_t>(farm::resolveJobs(opts.farm.jobs), 1);

  // One run of an arm, as every in-process executor performs it.
  auto runArm = [&](std::size_t armIdx, std::uint64_t seed) {
    const Arm& arm = arms[armIdx];
    experiment::RunSpec rs = armSpec(base, arm);
    rs.seedBase = seed;
    auto lease = pools.at(arm.noise)->acquire();
    if (lease->noiseMaker() != nullptr) {
      noise::NoiseOptions no = base.tool.noiseOpts;
      no.strength = arm.strength;
      lease->noiseMaker()->setOptions(no);
    }
    return experiment::executeRun(rs, 0, *lease);
  };
  // A local worker learns its run's arm from the lease: noise, strength
  // and policy, with a mutation arm's policy field naming its witness
  // ("~<fingerprint>", the label's suffix; no policy spec starts with '~').
  auto wirePolicy = [](const Arm& a) {
    return a.witness ? "~" + a.mutationFingerprint : a.policy;
  };
  auto armOf = [&](const fleet::RunAssignment& a) {
    for (std::size_t i = 0; i < arms.size(); ++i) {
      if (arms[i].noise == a.noiseName && arms[i].strength == a.strength &&
          wirePolicy(arms[i]) == a.policy) {
        return i;
      }
    }
    throw std::runtime_error("guide: a lease names no arm of this campaign");
  };

  // The in-process BatchRunner: one farm worker set, or under
  // WorkerModel::Process one local fleet of forked workers, created at the
  // first batch that executes a run; either serves every batch.  Each
  // batch is a farm campaign over batch-local indices (progress and stop
  // rules as the farm has them); only the guide journals and streams JSONL.
  const bool isolated = opts.farm.model == farm::WorkerModel::Process &&
                        farm::detail::processIsolationSupported();
  farm::Workers workers(opts.farm.jobs);
  std::unique_ptr<fleet::LocalFleet> localFleet;
  BatchRunner inProcess = [&](const std::vector<GuideBatchRun>& batch) {
    farm::FarmOptions inner = opts.farm;
    inner.journalPath.clear();
    inner.resume = false;
    inner.journalConfig.clear();
    inner.jsonlPath.clear();
    inner.stopOnRecord = nullptr;
    if (opts.stopOnFirstFind) {
      inner.stopOnRecord = [](const experiment::RunObservation& o) {
        return !observationFingerprint(o).empty();
      };
    }
    inner.seedForIndex = [&batch](std::uint64_t local) {
      return batch[static_cast<std::size_t>(local)].seed;
    };
    farm::CampaignResult cr;
    if (isolated) {
      if (!localFleet) {
        localFleet = std::make_unique<fleet::LocalFleet>(
            [&](const fleet::RunAssignment& a) {
              return runArm(armOf(a), a.seed);
            },
            opts.farm, static_cast<std::size_t>(std::min(batchSize, budget)));
      }
      cr = fleet::serveJobs(
          localFleet->coordinator(), batch.size(), inner,
          [&](std::uint64_t local) {
            const GuideBatchRun& r = batch[static_cast<std::size_t>(local)];
            return fleet::RunAssignment{local, r.seed, r.noiseName,
                                        r.strength,
                                        wirePolicy(arms[r.armIndex])};
          });
    } else {
      cr = workers.run(
          batch.size(),
          [&](std::uint64_t local) {
            const GuideBatchRun& r = batch[static_cast<std::size_t>(local)];
            experiment::RunObservation obs = runArm(r.armIndex, r.seed);
            obs.runIndex = local;  // the farm keys records by it
            return obs;
          },
          inner);
    }
    GuideBatchOutcome out;
    out.retries = cr.retries;
    out.stoppedEarly = cr.stoppedEarly;
    for (experiment::RunObservation& r : cr.records) {
      if (r.runIndex >= batch.size()) continue;  // defensive
      const std::uint64_t idx = batch[static_cast<std::size_t>(r.runIndex)].index;
      out.records.emplace(idx, std::move(r));
    }
    return out;
  };
  const BatchRunner& runBatch = opts.batchRunner ? opts.batchRunner : inProcess;

  for (std::uint64_t start = 0; start < budget && !stopped;
       start += batchSize) {
    const std::uint64_t end = std::min(budget, start + batchSize);
    std::vector<GuideBatchRun> slots;
    std::vector<GuideBatchRun> toRun;
    for (std::uint64_t idx = start; idx < end; ++idx) {
      std::size_t armIdx;
      std::uint64_t seed;
      auto it = assigned.find(idx);
      if (it != assigned.end()) {
        armIdx = it->second.first;
        seed = it->second.second;
        bandit.assignFixed(armIdx);
      } else {
        armIdx = bandit.assign();
        seed = base.seedBase + idx;
        assigned.emplace(idx, std::make_pair(armIdx, seed));
        logWriter.append(idx, armIdx, seed);
      }
      const Arm& arm = arms[armIdx];
      slots.push_back(GuideBatchRun{idx, seed, armIdx, arm.noise,
                                    arm.strength, arm.policy});
      if (journaled.find(idx) == journaled.end()) toRun.push_back(slots.back());
    }

    GuideBatchOutcome fresh;
    if (!toRun.empty()) {
      // Where a run executed cannot leak into the folded prefix: the fold
      // below is the same for every runner.
      Stopwatch wall;
      fresh = runBatch(toRun);
      g.wallSeconds += wall.elapsedSeconds();
      g.retries += fresh.retries;
    }

    for (const GuideBatchRun& s : slots) {
      if (stopped) break;
      auto jt = journaled.find(s.index);
      if (jt != journaled.end()) {
        fold(jt->second, s.armIndex, /*fromJournal=*/true);
        continue;
      }
      auto ft = fresh.records.find(s.index);
      if (ft == fresh.records.end()) continue;  // cancelled before executing
      ft->second.runIndex = s.index;  // the map key is authoritative
      fold(ft->second, s.armIndex, /*fromJournal=*/false);
    }
    if (fresh.stoppedEarly && !stopped) {
      // stopFlag / in-batch early stop drained the batch without a fold
      // rule firing: surface the cancellation.
      stopped = true;
      g.stoppedEarly = true;
    }
  }

  g.unseenMass = unseen.estimate();
  g.arms.reserve(arms.size());
  for (std::size_t i = 0; i < arms.size(); ++i) {
    g.arms.push_back(ArmReport{arms[i], bandit.stats()[i]});
  }
  journal.close();
  logWriter.close();
  return g;
}

// --- report ----------------------------------------------------------------

std::string guideReport(const GuideResult& g, bool timing) {
  TextTable t("guided campaign — " + g.result.programName + " (" +
              g.result.toolLabel + ")");
  t.header({"arm", "pulls", "folded", "mean reward", "novel cov",
            "novel fp", "bugs"});
  for (const ArmReport& ar : g.arms) {
    t.row({ar.arm.label(), std::to_string(ar.stats.pulls),
           std::to_string(ar.stats.completed),
           TextTable::num(ar.stats.meanReward()),
           std::to_string(ar.stats.novelCoverageRuns),
           std::to_string(ar.stats.novelFingerprintRuns),
           std::to_string(ar.stats.manifestations)});
  }
  std::string out = t.render();
  out += "runs: " + std::to_string(g.runs()) + "/" +
         std::to_string(g.budget);
  if (g.resumed > 0) {
    out += " (" + std::to_string(g.resumed) + " from journal)";
  }
  out += "\n";
  out += "coverage: " + std::to_string(g.coverage.coveredCount());
  if (g.coverage.closed) {
    out += "/" + std::to_string(g.coverage.taskCount()) +
           " tasks (closed universe)";
  } else {
    out += " tasks (open universe), unseen mass ~" +
           TextTable::num(g.unseenMass);
  }
  out += "\n";
  out += "fingerprints: " + std::to_string(g.fingerprints.size()) +
         " distinct\n";
  if (g.saturated) {
    out += "saturated at run " + std::to_string(g.saturatedAtRun) + "\n";
  }
  if (g.targetReached) {
    out += "target fingerprint set reached\n";
  }
  if (g.found) {
    out += "first failure: run " + std::to_string(g.firstFindRun) +
           ", seed " + std::to_string(g.firstFindSeed) + ", arm " +
           (g.firstFindArm < g.arms.size() ? g.arms[g.firstFindArm].arm.label()
                                           : std::to_string(g.firstFindArm)) +
           ", fingerprint " + g.firstFindFingerprint + "\n";
  }
  if (timing) {
    out += "wall: " + TextTable::num(g.wallSeconds) + "s\n";
  }
  return out;
}

}  // namespace mtt::guide
