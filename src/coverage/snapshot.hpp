// coverage::Snapshot — the value-type coverage result of one (or many) runs.
//
// Earlier CoverageModel accessors copied whole string sets under the model
// mutex and left merging/novelty logic to every call site (those shims are
// gone).  A Snapshot extracts the model state once and is then a plain value:
// it merges, computes novelty against a prior, and serializes to a compact
// binary form that travels in fleet RECORD frames and into the campaign
// journal — which is what lets mtt::guide feed per-run coverage deltas back
// into campaign control without re-running anything.
//
// Binary format (MSNP1):
//
//   "MSNP" '1'            magic + version byte
//   flags u8              bit0 = closed universe
//   varint outsideUniverse
//   varint |known|        then per task: varint length + raw bytes
//                         (tasks in sorted order — std::set iteration)
//   varint |covered|      then per task: varint index into the known list
//
// Covered tasks are indices into the known list because covered ⊆ known is
// a CoverageModel invariant; encode() enforces it (a hand-built Snapshot
// with a stray covered task throws).  The codec is core/wire.hpp's (LEB128
// varints, as in trace v2); decode() validates everything and throws one
// std::runtime_error on any corruption — truncation, bad magic, trailing
// bytes, out-of-range index — never UB.  Carriers (pipe record, journal,
// JSONL) move the blob as wire::toHex text.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <string_view>

namespace mtt::coverage {

struct Snapshot {
  std::set<std::string> covered;
  std::set<std::string> known;
  bool closed = false;                 ///< universe declared up front
  std::uint64_t outsideUniverse = 0;   ///< hits outside a closed universe

  std::size_t coveredCount() const { return covered.size(); }
  std::size_t taskCount() const { return known.size(); }
  /// coveredCount / taskCount; 0 when the universe is empty.
  double ratio() const;
  /// A closed universe with every task covered (false for open universes:
  /// there is no notion of "done" without a declared task set).
  bool complete() const { return closed && covered.size() == known.size(); }

  /// Folds `other` in: set union on covered/known, closed if either side
  /// was closed, outsideUniverse summed.
  void merge(const Snapshot& other);

  /// Number of covered tasks not covered in `prior` — the per-run coverage
  /// delta that is the guide engine's bandit reward signal.
  std::size_t novelty(const Snapshot& prior) const;

  /// Stable binary encoding (MSNP1).  Throws std::logic_error if covered is
  /// not a subset of known.
  std::string encode() const;
  /// Parses an MSNP1 blob; throws std::runtime_error with a diagnostic on
  /// any malformed input.
  static Snapshot decode(std::string_view bytes);

  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

}  // namespace mtt::coverage
