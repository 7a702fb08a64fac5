#include "farm/journal.hpp"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "core/atomic_file.hpp"
#include "core/fault.hpp"
#include "core/hash.hpp"
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

std::string hex16(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

[[noreturn]] void corrupt(const std::string& path, const std::string& why) {
  throw std::runtime_error("corrupt journal " + path + ": " + why);
}

bool parseHex16(const std::string& s, std::uint64_t& out) {
  if (s.size() != 16) return false;
  out = 0;
  for (char c : s) {
    if (!std::isxdigit(static_cast<unsigned char>(c))) return false;
    out = out * 16 +
          static_cast<std::uint64_t>(c <= '9' ? c - '0'
                                              : std::tolower(c) - 'a' + 10);
  }
  return true;
}

/// One "R <hex16> <payload>" line -> observation.  False on any defect.
bool parseRecordLine(const std::string& line,
                     experiment::RunObservation& obs) {
  if (line.size() < 19 || line[0] != 'R' || line[1] != ' ' ||
      line[18] != ' ') {
    return false;
  }
  std::uint64_t sum = 0;
  if (!parseHex16(line.substr(2, 16), sum)) return false;
  std::string payload = line.substr(19);
  if (journalDigest(payload) != sum) return false;
  return decodePipeRecord(payload, obs);
}

}  // namespace

JournalData loadJournal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open journal " + path + ": " +
                             std::strerror(errno));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  // Split into lines; remember whether the file ends in a newline — a
  // final line without one is the torn-tail candidate.
  std::vector<std::string> lines;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  const bool unterminated = !cur.empty();
  if (unterminated) lines.push_back(cur);

  JournalData jd;
  if (lines.empty()) {
    // Killed before the first flush reached disk: nothing recorded.
    jd.tornTail = true;
    return jd;
  }
  if (lines[0] != kMagic) {
    if (lines.size() == 1 && unterminated &&
        std::string(kMagic).rfind(lines[0], 0) == 0) {
      // Torn inside the very first line: the journal died before the header
      // hit disk.  Nothing was recorded, so resume from scratch.
      jd.tornTail = true;
      return jd;
    }
    corrupt(path, "bad magic (expected '" + std::string(kMagic) + "')");
  }
  if (lines.size() < 2) {
    if (unterminated || text.size() == std::strlen(kMagic) + 1) {
      jd.tornTail = true;  // died between header lines
      return jd;
    }
    corrupt(path, "missing config line");
  }

  // config <digest> <total>
  {
    const std::string& cl = lines[1];
    std::istringstream cs(cl);
    std::string word, digest, total;
    bool ok = static_cast<bool>(cs >> word >> digest >> total) &&
              word == "config" && parseHex16(digest, jd.configDigest);
    if (ok) {
      try {
        jd.total = std::stoull(total);
      } catch (const std::exception&) {
        ok = false;
      }
    }
    if (lines.size() == 2 && unterminated) {
      // The newline is the commit marker: a config line without one may be
      // truncated mid-token even when it parses (e.g. total 400 cut to 40).
      // Nothing was recorded yet, so resume from scratch.
      jd.configDigest = 0;
      jd.total = 0;
      jd.tornTail = true;
      return jd;
    }
    if (!ok) corrupt(path, "bad config line '" + cl + "'");
  }

  std::unordered_set<std::uint64_t> seen;
  for (std::size_t i = 2; i < lines.size(); ++i) {
    if (lines[i].empty()) {
      // An empty terminated line mid-file is corruption; a trailing empty
      // fragment cannot occur (cur.empty() fragments are not pushed).
      corrupt(path, "empty record line " + std::to_string(i + 1));
    }
    const bool last = i + 1 == lines.size();
    experiment::RunObservation obs;
    if (!parseRecordLine(lines[i], obs)) {
      if (last && unterminated) {
        jd.tornTail = true;  // checksum self-identifies the torn tail
        break;
      }
      // A terminated line that fails its checksum is real corruption, not
      // a crash artifact — appends land whole lines before the newline.
      corrupt(path, "bad record at line " + std::to_string(i + 1));
    }
    if (seen.insert(obs.runIndex).second) {
      jd.records.push_back(std::move(obs));
    }
    if (last && unterminated) {
      // The record survived its checksum, but the missing newline means a
      // blind append would glue the next record onto this line: the tail
      // must be rewritten before the journal accepts appends again.
      jd.tornTail = true;
    }
  }
  return jd;
}

namespace {

std::string headerText(std::uint64_t configDigest, std::uint64_t total) {
  return std::string(kMagic) + "\nconfig " + hex16(configDigest) + " " +
         std::to_string(total) + "\n";
}

std::string recordLine(const experiment::RunObservation& obs) {
  std::string payload = encodePipeRecord(obs);
  return "R " + hex16(journalDigest(payload)) + " " + payload + "\n";
}

}  // namespace

void rewriteJournal(const std::string& path, std::uint64_t configDigest,
                    std::uint64_t total,
                    const std::vector<experiment::RunObservation>& records) {
  std::string text = headerText(configDigest, total);
  for (const experiment::RunObservation& obs : records) {
    text += recordLine(obs);
  }
  core::atomicWriteFile(path, text, /*syncToDisk=*/true);
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
