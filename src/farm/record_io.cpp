// Record serialization for mtt::farm: the JSONL observability stream and
// the escaped-TSV record framing of journal payloads and fleet frames.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "coverage/snapshot.hpp"
#include "farm/farm.hpp"
#include "farm/record_io.hpp"

namespace mtt::farm {

std::string_view to_string(WorkerModel m) {
  switch (m) {
    case WorkerModel::Thread: return "thread";
    case WorkerModel::Process: return "process";
  }
  return "?";
}

std::size_t resolveJobs(std::size_t jobs) {
  if (jobs != 0) return jobs;
  unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

namespace {

void appendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string formatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string toJson(const experiment::RunObservation& o) {
  std::string j = "{";
  j += "\"run\":" + std::to_string(o.runIndex);
  j += ",\"seed\":" + std::to_string(o.seed);
  j += ",\"status\":";
  appendJsonString(j, o.status);
  j += ",\"manifested\":";
  j += o.manifested ? "true" : "false";
  j += ",\"detector_hit\":";
  j += o.detectorHit ? "true" : "false";
  j += ",\"warnings\":" + std::to_string(o.warnings);
  j += ",\"true_warnings\":" + std::to_string(o.trueWarnings);
  j += ",\"false_warnings\":" + std::to_string(o.falseWarnings);
  j += ",\"deadlock_potentials\":" + std::to_string(o.deadlockPotentials);
  j += ",\"wall_ms\":" + formatDouble(o.wallSeconds * 1e3);
  j += ",\"events\":" + std::to_string(o.events);
  j += ",\"injections\":" + std::to_string(o.noiseInjections);
  j += ",\"outcome\":";
  appendJsonString(j, o.outcome);
  j += ",\"dispatch_deliveries\":" + std::to_string(o.dispatchDeliveries);
  if (o.dispatchNsPerEvent > 0.0) {
    j += ",\"dispatch_ns_per_event\":" + formatDouble(o.dispatchNsPerEvent);
  }
  j += ",\"attempts\":" + std::to_string(o.attempts);
  if (!o.coverage.empty()) {
    // Decoded covered-count for dashboards plus the full hex blob so the
    // stream is lossless (guide replays/audits read it back).
    try {
      auto snap = coverage::Snapshot::decode(o.coverage);
      j += ",\"coverage_covered\":" + std::to_string(snap.coveredCount());
      j += ",\"coverage_known\":" + std::to_string(snap.taskCount());
    } catch (const std::exception&) {
      // Malformed blob: still emit the raw bytes below.
    }
    j += ",\"coverage\":";
    appendJsonString(j, coverage::toHex(o.coverage));
  }
  if (!o.failureMessage.empty()) {
    j += ",\"error\":";
    appendJsonString(j, o.failureMessage);
  }
  if (!o.postmortemPath.empty()) {
    j += ",\"postmortem\":";
    appendJsonString(j, o.postmortemPath);
  }
  j += "}";
  return j;
}

// Pipe framing: '\t' separates fields, so embedded tabs/newlines/backslashes
// are escaped.  The format only ever talks between processes of the same
// build (journal payloads, fleet frames), so there is no
// versioning concern beyond the field count.
void appendEscapedField(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
}

std::string unescapeField(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 == s.size()) {
      out += s[i];
      continue;
    }
    switch (s[++i]) {
      case '\\': out += '\\'; break;
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      default: out += s[i];
    }
  }
  return out;
}

std::vector<std::string> splitTabFields(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  for (char c : line) {
    if (c == '\t') {
      fields.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  fields.push_back(cur);
  return fields;
}

std::string encodePipeRecord(const experiment::RunObservation& o) {
  std::string line;
  line += std::to_string(o.runIndex);
  line += '\t';
  line += std::to_string(o.seed);
  line += '\t';
  appendEscapedField(line, o.status);
  line += '\t';
  line += o.manifested ? '1' : '0';
  line += '\t';
  line += o.hasDetectors ? '1' : '0';
  line += '\t';
  line += o.detectorHit ? '1' : '0';
  line += '\t';
  line += std::to_string(o.warnings);
  line += '\t';
  line += std::to_string(o.trueWarnings);
  line += '\t';
  line += std::to_string(o.falseWarnings);
  line += '\t';
  line += std::to_string(o.deadlockPotentials);
  line += '\t';
  line += formatDouble(o.wallSeconds);
  line += '\t';
  line += std::to_string(o.events);
  line += '\t';
  line += std::to_string(o.noiseInjections);
  line += '\t';
  appendEscapedField(line, o.outcome);
  line += '\t';
  appendEscapedField(line, o.failureMessage);
  line += '\t';
  line += std::to_string(o.attempts);
  line += '\t';
  line += std::to_string(o.dispatchDeliveries);
  line += '\t';
  line += formatDouble(o.dispatchNsPerEvent);
  line += '\t';
  appendEscapedField(line, o.postmortemPath);
  line += '\t';
  // Hex, not escaped raw bytes: the blob is binary and the journal format
  // wants printable payloads.
  line += coverage::toHex(o.coverage);
  return line;
}

bool decodePipeRecord(const std::string& line,
                      experiment::RunObservation& o) {
  std::vector<std::string> f = splitTabFields(line);
  // 19 fields: pre-coverage records (journals written by earlier builds);
  // 20: current format with the trailing coverage snapshot hex.
  if (f.size() != 19 && f.size() != 20) return false;
  try {
    o.runIndex = std::stoull(f[0]);
    o.seed = std::stoull(f[1]);
    o.status = unescapeField(f[2]);
    o.manifested = f[3] == "1";
    o.hasDetectors = f[4] == "1";
    o.detectorHit = f[5] == "1";
    o.warnings = std::stoull(f[6]);
    o.trueWarnings = std::stoull(f[7]);
    o.falseWarnings = std::stoull(f[8]);
    o.deadlockPotentials = std::stoull(f[9]);
    o.wallSeconds = std::stod(f[10]);
    o.events = std::stoull(f[11]);
    o.noiseInjections = std::stoull(f[12]);
    o.outcome = unescapeField(f[13]);
    o.failureMessage = unescapeField(f[14]);
    o.attempts = static_cast<std::uint32_t>(std::stoul(f[15]));
    o.dispatchDeliveries = std::stoull(f[16]);
    o.dispatchNsPerEvent = std::stod(f[17]);
    o.postmortemPath = unescapeField(f[18]);
    o.coverage = f.size() > 19 ? coverage::fromHex(f[19]) : std::string();
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace mtt::farm
