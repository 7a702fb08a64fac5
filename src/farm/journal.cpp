#include "farm/journal.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <unordered_set>

#include "core/atomic_file.hpp"
#include "core/fault.hpp"
#include "core/hash.hpp"
#include "core/wire.hpp"
#include "farm/farm.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define MTT_JOURNAL_HAS_FSYNC 1
#else
#define MTT_JOURNAL_HAS_FSYNC 0
#endif

namespace mtt::farm {

std::uint64_t journalDigest(const std::string& text) {
  return core::fnv1a64(text);
}

namespace {

constexpr char kMagic[] = "MTTJOURNAL 1";

/// One "R <hex16> <payload>" line -> observation.  False on any defect.
bool parseRecordLine(std::string_view line, experiment::RunObservation& obs) {
  std::uint64_t sum = 0;
  if (line.size() < 19 || line.substr(0, 2) != "R " || line[18] != ' ' ||
      !wire::parseHex16(line.substr(2, 16), sum)) {
    return false;
  }
  const std::string payload(line.substr(19));
  return journalDigest(payload) == sum && decodePipeRecord(payload, obs);
}

std::string headerText(std::uint64_t configDigest, std::uint64_t total) {
  return std::string(kMagic) + "\nconfig " + wire::hex16(configDigest) + " " +
         std::to_string(total) + "\n";
}

std::string recordLine(const experiment::RunObservation& obs) {
  std::string payload = encodePipeRecord(obs);
  return "R " + wire::hex16(journalDigest(payload)) + " " + payload + "\n";
}

}  // namespace

JournalData parseJournal(std::string_view text, const std::string& path) {
  auto corrupt = [&path](const std::string& why) {
    return std::runtime_error("corrupt journal " + path + ": " + why);
  };
  // '\n' commits a line: the unterminated tail is the torn-tail candidate.
  const wire::Lines lines = wire::splitLines(text);
  const std::vector<std::string_view>& done = lines.complete;
  const std::string_view magic = kMagic;
  if (done.empty() ? !magic.starts_with(lines.tail) : done[0] != magic) {
    throw corrupt("bad magic (expected '" + std::string(kMagic) + "')");
  }
  JournalData jd;
  // The header is durable before the first record, so a journal torn
  // inside it recorded nothing: resume from scratch.
  if (done.size() < 2) {
    jd.tornTail = true;
    return jd;
  }
  // config <digest> <total>
  const std::vector<std::string_view> cf = wire::splitFields(done[1], ' ');
  if (cf.size() != 3 || cf[0] != "config" ||
      !wire::parseHex16(cf[1], jd.configDigest) ||
      !wire::parseU64(cf[2], jd.total)) {
    throw corrupt("bad config line '" + std::string(done[1]) + "'");
  }

  std::unordered_set<std::uint64_t> seen;
  auto keep = [&](experiment::RunObservation& obs) {
    if (seen.insert(obs.runIndex).second) {
      jd.records.push_back(std::move(obs));
    }
  };
  for (std::size_t i = 2; i < done.size(); ++i) {
    experiment::RunObservation obs;
    // A terminated line that fails its checksum is real corruption, not a
    // crash artifact — appends land whole lines before the newline.
    if (!parseRecordLine(done[i], obs)) {
      throw corrupt((done[i].empty() ? "empty record line "
                                     : "bad record at line ") +
                    std::to_string(i + 1));
    }
    keep(obs);
  }
  if (!lines.tail.empty()) {
    // The checksum self-identifies a torn record.  One that survives it is
    // kept, but without its newline a blind append would glue the next
    // record onto it: either way the tail must be rewritten first.
    jd.tornTail = true;
    experiment::RunObservation obs;
    if (parseRecordLine(lines.tail, obs)) keep(obs);
  }
  return jd;
}

std::string renderJournal(
    std::uint64_t configDigest, std::uint64_t total,
    const std::vector<experiment::RunObservation>& records) {
  std::string text = headerText(configDigest, total);
  for (const experiment::RunObservation& obs : records) {
    text += recordLine(obs);
  }
  return text;
}

JournalData loadJournal(const std::string& path) {
  std::string text;
  if (!core::readFile(path, text)) {
    throw std::runtime_error("cannot open journal " + path + ": " +
                             std::strerror(errno));
  }
  return parseJournal(text, path);
}

void rewriteJournal(const std::string& path, std::uint64_t configDigest,
                    std::uint64_t total,
                    const std::vector<experiment::RunObservation>& records) {
  core::atomicWriteFile(path, renderJournal(configDigest, total, records),
                        /*syncToDisk=*/true);
}

void JournalWriter::open(const std::string& path, std::uint64_t configDigest,
                         std::uint64_t total, bool append) {
  close();
  f_ = std::fopen(path.c_str(), append ? "ab" : "wb");
  if (f_ == nullptr) {
    throw std::runtime_error("cannot open journal " + path + ": " +
                             std::strerror(errno));
  }
  path_ = path;
  std::fseek(f_, 0, SEEK_END);
  if (std::ftell(f_) == 0) {
    // The header must be durable before the first record: a journal whose
    // identity line never landed is indistinguishable from corruption.
    const std::string header = headerText(configDigest, total);
    if (std::fputs(header.c_str(), f_) == EOF || !sync()) {
      const std::string why = std::strerror(errno);
      std::fclose(f_);
      f_ = nullptr;
      throw std::runtime_error("cannot write journal header to " + path +
                               ": " + why);
    }
  }
}

namespace {

std::int64_t monotonicMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void JournalWriter::fail(const std::string& why) {
  failed_ = true;
  throw std::runtime_error("journal " + path_ + ": " + why);
}

void JournalWriter::append(const experiment::RunObservation& obs) {
  if (f_ == nullptr) return;
  if (failed_) fail("writer latched by an earlier write failure");
  const std::string line = recordLine(obs);
  using Action = core::FaultDecision::Action;
  const core::FaultDecision fault = core::checkFault(
      core::FaultOp::DiskWrite, "farm.journal.append", line.size());
  if (fault.action == Action::Short) {
    // Realistic short write: a prefix of the line lands before the device
    // fails, leaving exactly the torn tail loadJournal repairs.
    const std::size_t wrote = std::min(line.size(), fault.count);
    std::fwrite(line.data(), 1, wrote, f_);
    std::fflush(f_);
    fail("short write (injected fault): " + std::to_string(wrote) + " of " +
         std::to_string(line.size()) + " bytes");
  }
  if (fault.action == Action::Fail) {
    fail(std::string("write failed (injected fault): ") +
         std::strerror(fault.err != 0 ? fault.err : ENOSPC));
  }
  if (std::fwrite(line.data(), 1, line.size(), f_) != line.size()) {
    fail(std::string("short write: ") + std::strerror(errno));
  }
  // fflush is the kill-safety line: once the kernel holds the bytes,
  // SIGKILLing this process loses nothing.  The (much more expensive)
  // fsync only guards against machine crashes, so it is time-batched.
  if (std::fflush(f_) != 0) {
    fail(std::string("flush failed: ") + std::strerror(errno));
  }
  if (monotonicMs() - lastSyncMs_ >= kSyncIntervalMs && !sync()) {
    fail(std::string("fsync failed: ") + std::strerror(errno));
  }
}

bool JournalWriter::sync() {
  lastSyncMs_ = monotonicMs();
  if (std::fflush(f_) != 0) return false;
  const core::FaultDecision fault =
      core::checkFault(core::FaultOp::DiskFsync, "farm.journal.fsync", 0);
  if (fault.action == core::FaultDecision::Action::Fail) {
    errno = fault.err != 0 ? fault.err : EIO;
    return false;
  }
#if MTT_JOURNAL_HAS_FSYNC
  if (::fsync(::fileno(f_)) != 0) return false;
#endif
  return true;
}

void JournalWriter::close() {
  if (f_ == nullptr) return;
  if (!failed_) sync();  // best-effort; close must never throw
  std::fclose(f_);
  f_ = nullptr;
  failed_ = false;
}

}  // namespace mtt::farm
