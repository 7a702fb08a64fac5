#include "triage/corpus.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/atomic_file.hpp"
#include "core/wire.hpp"
#include "triage/probe.hpp"

namespace mtt::triage {

namespace fs = std::filesystem;

namespace {

constexpr const char* kWitnessFile = "witness.scenario";
constexpr const char* kMetaFile = "meta";
constexpr const char* kIndexFile = "index.tsv";
constexpr const char* kLockFile = ".lock";

void writeMeta(const fs::path& path, const CorpusEntry& e) {
  std::ostringstream out;
  out << "MTTMETA 1\n";
  out << "program " << e.program << '\n';
  out << "fingerprint " << e.fingerprint << '\n';
  out << "kind " << e.kind << '\n';
  out << "seed " << e.seed << '\n';
  out << "decisions " << e.decisions << '\n';
  out << "preemptions " << e.preemptions << '\n';
  out << "discovered " << e.discovered << '\n';
  out << "verified " << (e.replayVerified ? 1 : 0) << '\n';
  out << "shrunk " << (e.shrunk ? 1 : 0) << '\n';
  out << "noise " << e.noise << '\n';
  out << "strength " << wire::formatDouble(e.strength) << '\n';
  std::istringstream canon(e.canonical);
  for (std::string line; std::getline(canon, line);) {
    out << "sig " << line << '\n';
  }
  out << "end\n";
  core::atomicWriteFile(path.string(), out.str());
}

}  // namespace

fs::path Corpus::bucketDir(const std::string& program,
                           const std::string& fingerprint) const {
  return root_ / program / fingerprint;
}

fs::path Corpus::witnessPath(const std::string& program,
                             const std::string& fingerprint) const {
  return bucketDir(program, fingerprint) / kWitnessFile;
}

std::optional<CorpusEntry> Corpus::loadEntry(const fs::path& dir) const {
  std::ifstream in(dir / kMetaFile);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line) || line != "MTTMETA 1") return std::nullopt;
  CorpusEntry e;
  bool sawEnd = false;
  while (std::getline(in, line)) {
    if (line == "end") {
      sawEnd = true;
      break;
    }
    auto space = line.find(' ');
    std::string key = line.substr(0, space);
    std::string val = space == std::string::npos ? "" : line.substr(space + 1);
    bool ok = true;
    if (key == "program") {
      e.program = val;
    } else if (key == "fingerprint") {
      e.fingerprint = val;
    } else if (key == "kind") {
      e.kind = val;
    } else if (key == "noise") {
      e.noise = val;
    } else if (key == "seed") {
      ok = wire::parseU64(val, e.seed);
    } else if (key == "decisions") {
      ok = wire::parseU64(val, e.decisions);
    } else if (key == "preemptions") {
      ok = wire::parseU64(val, e.preemptions);
    } else if (key == "discovered") {
      ok = wire::parseU64(val, e.discovered);
    } else if (key == "verified") {
      ok = wire::parseBool(val, e.replayVerified);
    } else if (key == "shrunk") {
      ok = wire::parseBool(val, e.shrunk);
    } else if (key == "strength") {
      ok = wire::parseDouble(val, e.strength);
    } else if (key == "sig") {
      e.canonical += val;
      e.canonical += '\n';
    } else {
      ok = false;
    }
    // An unknown key or a malformed value marks the bucket corrupt.
    if (!ok) return std::nullopt;
  }
  if (!sawEnd || e.program.empty() || e.fingerprint.empty()) {
    return std::nullopt;
  }
  e.scenarioPath = dir / kWitnessFile;
  std::error_code ec;
  if (!fs::exists(e.scenarioPath, ec)) return std::nullopt;
  return e;
}

InsertResult Corpus::insert(const replay::Scenario& s,
                            const FailureSignature& sig, bool replayVerified,
                            bool shrunk, std::uint64_t discoveredEpoch) {
  if (!sig.failure()) {
    throw std::runtime_error(
        "corpus: refusing to insert a non-failing scenario");
  }
  if (s.program.empty()) {
    throw std::runtime_error("corpus: scenario has no program name");
  }
  InsertResult res;
  res.fingerprint = sig.fingerprint();
  fs::path dir = bucketDir(s.program, res.fingerprint);
  res.witness = dir / kWitnessFile;

  // Serialize against concurrent inserts/gc from other processes (e.g. two
  // farm campaigns sharing one corpus): the whole read-compare-write cycle
  // runs under the corpus-wide lock, so the smallest-witness comparison
  // and the index rewrite cannot interleave.
  std::error_code lec;
  fs::create_directories(root_, lec);
  core::FileLock lock((root_ / kLockFile).string());

  CorpusEntry e;
  e.program = s.program;
  e.fingerprint = res.fingerprint;
  e.kind = std::string(to_string(sig.kind));
  e.canonical = sig.canonical();
  e.seed = s.seed;
  e.decisions = s.schedule.size();
  e.preemptions = countPreemptions(s.schedule.decisions);
  e.discovered = discoveredEpoch;
  e.replayVerified = replayVerified;
  e.shrunk = shrunk;
  e.noise = s.noise;
  e.strength = s.strength;
  e.scenarioPath = res.witness;

  std::optional<CorpusEntry> existing = loadEntry(dir);
  if (existing) {
    bool better = e.decisions < existing->decisions ||
                  (e.decisions == existing->decisions &&
                   e.preemptions < existing->preemptions);
    if (!better) return res;  // bucket already holds a witness at least as small
    e.discovered = existing->discovered;  // first discovery time sticks
    res.replaced = true;
  } else {
    res.inserted = true;
  }

  std::error_code ec;
  fs::create_directories(dir, ec);
  replay::saveScenario(s, res.witness.string());
  writeMeta(dir / kMetaFile, e);
  rebuildIndex();
  return res;
}

std::vector<CorpusEntry> Corpus::entries(
    const std::string& programFilter) const {
  std::vector<CorpusEntry> out;
  std::error_code ec;
  if (!fs::is_directory(root_, ec)) return out;
  for (const auto& progDir : fs::directory_iterator(root_, ec)) {
    if (!progDir.is_directory()) continue;
    std::string program = progDir.path().filename().string();
    if (!programFilter.empty() && program != programFilter) continue;
    std::error_code ec2;
    for (const auto& bucket : fs::directory_iterator(progDir.path(), ec2)) {
      if (!bucket.is_directory()) continue;
      if (auto e = loadEntry(bucket.path())) out.push_back(std::move(*e));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const CorpusEntry& a, const CorpusEntry& b) {
              return std::tie(a.program, a.fingerprint) <
                     std::tie(b.program, b.fingerprint);
            });
  return out;
}

std::optional<CorpusEntry> Corpus::find(const std::string& program,
                                        const std::string& fingerprint) const {
  return loadEntry(bucketDir(program, fingerprint));
}

VerifyOutcome Corpus::verify(const std::string& programFilter) const {
  VerifyOutcome out;
  // One probe stack, and the runtime it keeps, per noise config: the
  // entries share its stacks instead of each mapping its own.
  std::map<std::pair<std::string, double>, experiment::ToolStack> stacks;
  for (const CorpusEntry& e : entries(programFilter)) {
    ++out.checked;
    std::string where = e.program + "/" + e.fingerprint;
    try {
      replay::Scenario s = replay::loadScenario(e.scenarioPath.string());
      if (!s.program.empty() && s.program != e.program) {
        out.failures.push_back(where + ": witness names program '" +
                               s.program + "'");
        continue;
      }
      const ReplayToolConfig cfg = toolConfigOf(s);
      auto stack = stacks.find({cfg.noiseName, cfg.strength});
      if (stack == stacks.end()) {
        stack = stacks.emplace(std::pair{cfg.noiseName, cfg.strength},
                               probeStack(cfg)).first;
      }
      ProbeResult p = probeExact(e.program, s.schedule, cfg, &stack->second);
      if (!p.signature.failure()) {
        out.failures.push_back(where + ": replay no longer fails");
      } else if (p.signature.fingerprint() != e.fingerprint) {
        out.failures.push_back(where + ": signature drifted to " +
                               p.signature.fingerprint());
      } else {
        ++out.passed;
      }
    } catch (const std::exception& ex) {
      out.failures.push_back(where + ": " + ex.what());
    }
  }
  return out;
}

std::size_t Corpus::gc() {
  std::size_t removed = 0;
  std::error_code ec;
  if (!fs::is_directory(root_, ec)) return 0;
  core::FileLock lock((root_ / kLockFile).string());
  for (const auto& progDir : fs::directory_iterator(root_, ec)) {
    if (!progDir.is_directory()) continue;
    std::error_code ec2;
    for (const auto& bucket : fs::directory_iterator(progDir.path(), ec2)) {
      if (!bucket.is_directory()) continue;
      bool healthy = false;
      if (auto e = loadEntry(bucket.path())) {
        try {
          replay::Scenario s = replay::loadScenario(e->scenarioPath.string());
          healthy = s.program.empty() || s.program == e->program;
        } catch (const std::exception&) {
          healthy = false;
        }
      }
      if (!healthy) {
        fs::remove_all(bucket.path(), ec2);
        ++removed;
      }
    }
    // Drop program directories emptied by the sweep.
    if (fs::is_empty(progDir.path(), ec2)) {
      fs::remove(progDir.path(), ec2);
    }
  }
  rebuildIndex();
  return removed;
}

void Corpus::rebuildIndex() const {
  std::ostringstream out;
  out << "# program\tfingerprint\tkind\tdecisions\tpreemptions\tseed\t"
         "verified\tshrunk\tnoise\tdiscovered\n";
  for (const CorpusEntry& e : entries()) {
    out << e.program << '\t' << e.fingerprint << '\t' << e.kind << '\t'
        << e.decisions << '\t' << e.preemptions << '\t' << e.seed << '\t'
        << (e.replayVerified ? 1 : 0) << '\t' << (e.shrunk ? 1 : 0) << '\t'
        << e.noise << '\t' << e.discovered << '\n';
  }
  // Atomic rewrite: readers of index.tsv always see a complete index, even
  // while another process is mid-insert.
  core::atomicWriteFile((root_ / kIndexFile).string(), out.str());
}

}  // namespace mtt::triage
