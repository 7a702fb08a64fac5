#include "triage/shrink.hpp"

#include <algorithm>
#include <compare>
#include <set>
#include <vector>

#include "farm/farm.hpp"
#include "triage/probe.hpp"

namespace mtt::triage {

namespace {

using Decisions = std::vector<rt::Decision>;

/// Positions of context switches in `current` (candidates for the
/// preemption-lowering pass).  Store picks are transparent: a switch is a
/// thread pick whose nearest preceding thread pick names a different
/// thread.
std::vector<std::size_t> switchPositions(const Decisions& current) {
  std::vector<std::size_t> out;
  bool havePrev = false;
  ThreadId prev = 0;
  for (std::size_t i = 0; i < current.size(); ++i) {
    if (!current[i].isThread()) continue;
    auto t = static_cast<ThreadId>(current[i].value);
    if (havePrev && t != prev) out.push_back(i);
    prev = t;
    havePrev = true;
  }
  return out;
}

/// The nearest thread pick before `pos` (there is one at every switch).
rt::Decision previousThreadPick(const Decisions& current, std::size_t pos) {
  while (!current[--pos].isThread()) {
  }
  return current[pos];
}

/// Positions of non-default store observations (candidates for the
/// store-lowering pass: rewriting them to 0 means "observe the
/// coherence-newest store", the SC behaviour).
std::vector<std::size_t> weakPickPositions(const Decisions& current) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < current.size(); ++i) {
    if (current[i].isStore() && current[i].value != 0) out.push_back(i);
  }
  return out;
}

std::size_t countWeakPicks(const Decisions& current) {
  std::size_t n = 0;
  for (const rt::Decision& d : current) {
    if (d.isStore() && d.value != 0) ++n;
  }
  return n;
}

/// Names one candidate of a sweep exactly, relative to the snapshot the
/// sweep edits: two keys of one pass are equal iff their candidate vectors
/// are.  ddmin names the window it drops as (lo, len), slid right while
/// snapshot[lo] == snapshot[lo + len] — dropping [lo, hi) and [lo+1, hi+1)
/// leave the same vector exactly when those two decisions are equal.  The
/// lowering passes name the position they rewrite (len = 0).
enum class Pass : std::uint8_t { Ddmin, Preemption, Store };

struct CandidateKey {
  std::uint64_t pos;
  std::uint32_t len;
  Pass pass;
  friend auto operator<=>(const CandidateKey&, const CandidateKey&) = default;
};
static_assert(sizeof(CandidateKey) <= 16);

/// The key of ddmin's i-th of n chunks.  Chunks are cut over the raw
/// decision vector — StorePick decisions are removable entries like any
/// other, and probeCandidate repairs whatever misalignment a cut produces.
CandidateKey ddminKey(const Decisions& snapshot, std::size_t n, std::size_t i) {
  const std::size_t len = snapshot.size();
  std::size_t lo = i * len / n;
  std::size_t hi = (i + 1) * len / n;
  while (hi < len && snapshot[lo] == snapshot[hi]) {
    ++lo;
    ++hi;
  }
  return CandidateKey{lo, static_cast<std::uint32_t>(hi - lo), Pass::Ddmin};
}

/// `snapshot` minus the window a ddmin key names.
Decisions dropWindow(const Decisions& snapshot, const CandidateKey& k) {
  Decisions out;
  out.reserve(snapshot.size() - k.len);
  out.insert(out.end(), snapshot.begin(),
             snapshot.begin() + static_cast<std::ptrdiff_t>(k.pos));
  out.insert(out.end(),
             snapshot.begin() + static_cast<std::ptrdiff_t>(k.pos + k.len),
             snapshot.end());
  return out;
}

struct Shrinker {
  const std::string& program;
  ReplayToolConfig cfg;
  FailureSignature target;
  ShrinkOptions opts;
  /// Probes the serial scan runs (see ShrinkResult::validations).
  std::uint64_t validations = 0;
  /// Probes parallel workers ran past a sweep's winner.
  std::uint64_t speculative = 0;
  std::uint64_t rounds = 0;
  /// Keys of candidates known to be rejected on `current`; cleared only
  /// when `current` is replaced.
  std::set<CandidateKey> rejected{};

  bool budgetLeft() const { return validations < opts.maxValidations; }

  /// One sweep: probes `keys` in order (through the farm) and replaces
  /// `current` with the recorded decisions of the first accepted candidate.
  /// Keys already rejected on this snapshot, or repeated earlier in the
  /// sweep, are dropped before the scan — a probe is a pure function of
  /// the candidate and the tool config, so their verdicts are known and
  /// the smallest accepted index is unchanged.  The sweep runs at most
  /// the validations left in the budget.  Returns true if `current` was
  /// replaced.
  template <class Build, class Verdict>
  bool sweep(const std::vector<CandidateKey>& keys, Build build,
             Verdict verdict, Decisions& current) {
    const std::uint64_t left = opts.maxValidations - validations;
    std::vector<CandidateKey> todo;
    for (const CandidateKey& k : keys) {
      if (todo.size() == left) break;
      // Inserted before the scan: if no candidate is accepted every one of
      // them was rejected; if one is, `current` changes and the set clears.
      if (rejected.insert(k).second) todo.push_back(k);
    }
    // Each accepted candidate hands its recorded decisions back through its
    // own slot, so the winner is never run a second time.
    std::vector<Decisions> recorded(todo.size());
    auto accept = [&](std::uint64_t i) {
      ProbeResult p = probeCandidate(program, build(todo[i]), cfg);
      if (!(p.signature == target) || !verdict(p.recorded.decisions)) {
        return false;
      }
      recorded[i] = std::move(p.recorded.decisions);
      return true;
    };
    const farm::CandidateScan scan =
        farm::scanCandidates(todo.size(), accept, opts.jobs);
    const std::uint64_t serial = scan.found ? scan.index + 1 : todo.size();
    validations += serial;
    speculative += scan.evaluated - serial;
    if (!scan.found) return false;
    current = std::move(recorded[scan.index]);
    rejected.clear();
    ++rounds;
    return true;
  }

  /// One ddmin fixpoint: returns true if `current` shrank.
  bool ddmin(Decisions& current) {
    bool improvedEver = false;
    std::size_t n = 2;
    while (current.size() >= 2 && budgetLeft()) {
      if (n > current.size()) n = current.size();
      const Decisions snapshot = current;
      std::vector<CandidateKey> keys;
      keys.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        keys.push_back(ddminKey(snapshot, n, i));
      }
      auto build = [&](const CandidateKey& k) {
        return dropWindow(snapshot, k);
      };
      auto shorter = [&](const Decisions& rec) {
        return rec.size() < snapshot.size();
      };
      if (sweep(keys, build, shorter, current)) {
        improvedEver = true;
        n = n > 2 ? n - 1 : 2;
      } else {
        if (n >= current.size()) break;
        n = std::min(n * 2, current.size());
      }
    }
    return improvedEver;
  }

  /// One preemption-lowering fixpoint: returns true if preemptions dropped.
  bool lowerPreemptions(Decisions& current) {
    bool improvedEver = false;
    while (budgetLeft()) {
      const Decisions snapshot = current;
      const std::size_t curPre = countPreemptions(snapshot);
      if (curPre == 0) break;
      std::vector<CandidateKey> keys;
      for (std::size_t pos : switchPositions(snapshot)) {
        keys.push_back(CandidateKey{pos, 0, Pass::Preemption});
      }
      auto build = [&](const CandidateKey& k) {
        // Let the previous thread keep running.
        Decisions cand = snapshot;
        cand[k.pos] = previousThreadPick(snapshot, k.pos);
        return cand;
      };
      auto fewer = [&](const Decisions& rec) {
        return countPreemptions(rec) < curPre && rec.size() <= snapshot.size();
      };
      if (!sweep(keys, build, fewer, current)) break;
      improvedEver = true;
    }
    return improvedEver;
  }

  /// One store-lowering fixpoint: rewrite non-default store observations to
  /// "observe the coherence-newest store" (index 0, the SC behaviour),
  /// accepting signature-preserving candidates with strictly fewer weak
  /// picks — minimized weak-memory witnesses keep only the stale reads the
  /// bug actually needs.  Returns true if the weak-pick count dropped.
  bool lowerStorePicks(Decisions& current) {
    bool improvedEver = false;
    while (budgetLeft()) {
      const Decisions snapshot = current;
      const std::size_t curWeak = countWeakPicks(snapshot);
      if (curWeak == 0) break;
      std::vector<CandidateKey> keys;
      for (std::size_t pos : weakPickPositions(snapshot)) {
        keys.push_back(CandidateKey{pos, 0, Pass::Store});
      }
      auto build = [&](const CandidateKey& k) {
        Decisions cand = snapshot;
        cand[k.pos] = rt::Decision::store(0);
        return cand;
      };
      auto fewer = [&](const Decisions& rec) {
        return countWeakPicks(rec) < curWeak && rec.size() <= snapshot.size();
      };
      if (!sweep(keys, build, fewer, current)) break;
      improvedEver = true;
    }
    return improvedEver;
  }
};

}  // namespace

ShrinkResult shrinkScenario(const replay::Scenario& s,
                            const ShrinkOptions& opts) {
  ShrinkResult res;
  res.original = s.schedule;
  res.originalPreemptions = countPreemptions(s.schedule.decisions);
  res.minimized = s;

  Shrinker sh{s.program, toolConfigOf(s), {}, opts};

  // 1. Reproduce the original and pin the target signature.
  ++sh.validations;
  ProbeResult base = probeExact(s.program, s.schedule, sh.cfg);
  if (!base.signature.failure()) {
    res.validations = sh.validations;
    res.minimizedPreemptions = res.originalPreemptions;
    return res;  // reproduced stays false
  }
  res.reproduced = true;
  sh.target = base.signature;
  res.signature = base.signature;
  Decisions current = base.recorded.decisions;

  // 2. Noise-strip baseline: with exact decision control the noise maker is
  // redundant.  Project the noise-injected decisions out of the recording
  // (ControlledRuntime::decisionNoise marks them): what remains schedules
  // the run's real operations in their original global order, so replaying
  // it with no noise attached reproduces the same interleaving — exactly for
  // sleep-free programs, best-effort (repair mode) otherwise.  Kept only
  // when the target signature survives; the noisy tool stack is the
  // fallback.
  if (opts.allowNoiseStrip && sh.cfg.noiseName != "none" &&
      !sh.cfg.noiseName.empty()) {
    Decisions projected;
    projected.reserve(current.size());
    for (std::size_t i = 0; i < base.recorded.decisions.size(); ++i) {
      bool noiseOp = i < base.noiseDecisions.size() && base.noiseDecisions[i];
      if (!noiseOp) projected.push_back(base.recorded.decisions[i]);
    }
    ReplayToolConfig bare = sh.cfg;
    bare.noiseName = "none";
    ++sh.validations;
    ProbeResult stripped = probeCandidate(s.program, projected, bare);
    if (stripped.signature == sh.target) {
      sh.cfg = bare;
      res.noiseStripped = true;
      current = stripped.recorded.decisions;
      ++sh.rounds;
    }
  }

  // 3./4. Alternate ddmin, preemption lowering and store-pick lowering to a
  // joint fixpoint.
  for (;;) {
    bool improved = sh.ddmin(current);
    improved = sh.lowerPreemptions(current) || improved;
    improved = sh.lowerStorePicks(current) || improved;
    if (!improved || !sh.budgetLeft()) break;
  }

  // 5. Exact-replay verification of the minimized witness.
  ++sh.validations;
  ProbeResult fin = probeExact(s.program, rt::Schedule{current}, sh.cfg);
  res.verifiedExact = fin.exact && fin.signature == sh.target;

  res.minimized.schedule.decisions = current;
  res.minimized.noise = sh.cfg.noiseName;
  res.minimizedPreemptions = countPreemptions(current);
  res.validations = sh.validations;
  res.speculative = sh.speculative;
  res.rounds = sh.rounds;
  return res;
}

}  // namespace mtt::triage
