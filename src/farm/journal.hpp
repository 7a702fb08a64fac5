// Campaign journal: the crash-safe record of which runs already finished.
//
// A farm campaign with a journal path appends one checksummed line per
// completed run; if the campaign is killed (SIGKILL, OOM, power loss), a
// later invocation with `resume` loads the journal, skips the finished
// runs, and merges the journaled records with the fresh ones — in
// controlled mode the final report is byte-identical to an uninterrupted
// campaign, for any worker count.
//
// Format (text, append-only):
//
//   MTTJOURNAL 1
//   config <16-hex FNV-1a of the campaign config text> <total runs>
//   R <16-hex FNV-1a of payload> <payload = encodePipeRecord(observation)>
//   R ...
//
// Durability properties:
//  * Append-only, one record per line, each self-checksummed: truncation at
//    any byte leaves at most one torn final record, which the loader drops
//    (tornTail); every earlier record is intact or the file is declared
//    corrupt with a diagnostic.  Never UB.
//  * Kill-safe per record, power-safe per time slice: every append is
//    fflushed (a SIGKILLed campaign loses nothing the kernel accepted),
//    while the fsync that guards against machine crashes is batched by
//    wall-clock (kSyncIntervalMs) so short runs never pay a sync each.
//  * Config-guarded: resuming with a different program/tool/run-count/seed
//    base fails fast with a clear mismatch diagnostic instead of silently
//    merging incompatible records.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "experiment/experiment.hpp"

namespace mtt::farm {

/// FNV-1a 64-bit over `text`; the journal's record checksum and the digest
/// that fingerprints a campaign config for resume validation.
std::uint64_t journalDigest(const std::string& text);

/// A loaded journal.
struct JournalData {
  std::uint64_t configDigest = 0;
  std::uint64_t total = 0;  ///< requested campaign size at write time
  /// Intact records in file order (deduplicated by runIndex, first wins).
  std::vector<experiment::RunObservation> records;
  /// True when the final record was torn (truncated mid-line) and dropped.
  bool tornTail = false;
};

/// Parses journal text (core/wire.hpp line split: '\n' commits a line).
/// Tolerates a torn final record and a header torn before it completed
/// (nothing recorded: empty, tornTail); throws std::runtime_error naming
/// `path` on a corrupt header or a corrupt terminated record.
JournalData parseJournal(std::string_view text, const std::string& path);
/// parseJournal over the file at `path`; also throws when it is missing.
JournalData loadJournal(const std::string& path);

/// The journal text holding exactly these records (header included).
std::string renderJournal(
    std::uint64_t configDigest, std::uint64_t total,
    const std::vector<experiment::RunObservation>& records);

/// Atomically rewrites `path` as a clean journal (header + records).  Used
/// on resume to repair a torn tail before reopening for append — appending
/// after a partial final line would corrupt the next record.
void rewriteJournal(const std::string& path, std::uint64_t configDigest,
                    std::uint64_t total,
                    const std::vector<experiment::RunObservation>& records);

/// Append-only journal writer.  Thread-compatible, not thread-safe — the
/// Collector serializes appends under its own mutex.
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter() { close(); }

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Opens the journal and writes the header.  With `append` the existing
  /// file is kept (resume; the header is only written when the file is
  /// empty), otherwise it is truncated for a fresh campaign.  Throws on
  /// I/O error.
  void open(const std::string& path, std::uint64_t configDigest,
            std::uint64_t total, bool append = false);

  /// Appends one completed-run record.  Always fflushes (kill-safe: the
  /// record survives SIGKILL of this process once the kernel has it) and
  /// fsyncs at most once per kSyncIntervalMs (power-crash loss bounded by
  /// one time slice, not one record).
  ///
  /// Throws std::runtime_error on a write/flush/fsync failure — real
  /// (ENOSPC, EIO) or injected through the core::checkFault seam
  /// (FaultOp::DiskWrite at "farm.journal.append", FaultOp::DiskFsync at
  /// "farm.journal.fsync").  A failure latches the writer: further appends
  /// rethrow, and close() skips the sync (it must never throw).  The
  /// on-disk damage is at most one torn final line, which loadJournal's
  /// checksum drops — exactly the crash case the format was built for.
  void append(const experiment::RunObservation& obs);

  /// Flushes + fsyncs + closes; safe to call repeatedly, never throws.
  void close();

  bool isOpen() const { return f_ != nullptr; }
  /// True after a write failure latched the writer.
  bool failed() const { return failed_; }

  static constexpr long kSyncIntervalMs = 250;

 private:
  bool sync();  ///< false on flush/fsync failure (errno describes it)
  [[noreturn]] void fail(const std::string& why);

  std::FILE* f_ = nullptr;
  std::string path_;
  bool failed_ = false;
  std::int64_t lastSyncMs_ = 0;
};

}  // namespace mtt::farm
