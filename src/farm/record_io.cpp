// Record serialization for mtt::farm: the JSONL observability stream and
// the escaped-TSV record framing of journal payloads and fleet frames.
#include <string>
#include <thread>
#include <vector>

#include "core/wire.hpp"
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

std::string toJson(const experiment::RunObservation& o) {
  std::string j = "{";
  j += "\"run\":" + std::to_string(o.runIndex);
  j += ",\"seed\":" + std::to_string(o.seed);
  j += ",\"status\":";
  wire::appendJsonString(j, o.status);
  j += ",\"manifested\":";
  j += o.manifested ? "true" : "false";
  j += ",\"detector_hit\":";
  j += o.detectorHit ? "true" : "false";
  j += ",\"warnings\":" + std::to_string(o.warnings);
  j += ",\"true_warnings\":" + std::to_string(o.trueWarnings);
  j += ",\"false_warnings\":" + std::to_string(o.falseWarnings);
  j += ",\"deadlock_potentials\":" + std::to_string(o.deadlockPotentials);
  j += ",\"wall_ms\":" + wire::formatDouble(o.wallSeconds * 1e3);
  j += ",\"events\":" + std::to_string(o.events);
  j += ",\"injections\":" + std::to_string(o.noiseInjections);
  j += ",\"outcome\":";
  wire::appendJsonString(j, o.outcome);
  j += ",\"dispatch_deliveries\":" + std::to_string(o.dispatchDeliveries);
  if (o.dispatchNsPerEvent > 0.0) {
    j += ",\"dispatch_ns_per_event\":" +
         wire::formatDouble(o.dispatchNsPerEvent);
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
    wire::appendJsonString(j, wire::toHex(o.coverage));
  }
  if (!o.failureMessage.empty()) {
    j += ",\"error\":";
    wire::appendJsonString(j, o.failureMessage);
  }
  if (!o.postmortemPath.empty()) {
    j += ",\"postmortem\":";
    wire::appendJsonString(j, o.postmortemPath);
  }
  j += "}";
  return j;
}

// Pipe framing: '\t' separates fields, and embedded tabs, newlines and
// backslashes are escaped (wire::appendEscapedField).  The format only ever
// talks between processes of the same build (journal payloads, fleet
// frames), so there is no versioning beyond the field count.
std::string encodePipeRecord(const experiment::RunObservation& o) {
  std::string line;
  auto num = [&line](std::uint64_t v) { line += std::to_string(v) + '\t'; };
  auto real = [&line](double v) { line += wire::formatDouble(v) + '\t'; };
  auto flag = [&line](bool b) { line += b ? "1\t" : "0\t"; };
  auto text = [&line](const std::string& s) {
    wire::appendEscapedField(line, s);
    line += '\t';
  };
  num(o.runIndex);
  num(o.seed);
  text(o.status);
  flag(o.manifested);
  flag(o.hasDetectors);
  flag(o.detectorHit);
  num(o.warnings);
  num(o.trueWarnings);
  num(o.falseWarnings);
  num(o.deadlockPotentials);
  real(o.wallSeconds);
  num(o.events);
  num(o.noiseInjections);
  text(o.outcome);
  text(o.failureMessage);
  num(o.attempts);
  num(o.dispatchDeliveries);
  real(o.dispatchNsPerEvent);
  text(o.postmortemPath);
  // Hex, not escaped raw bytes: the blob is binary and the journal format
  // wants printable payloads.
  line += wire::toHex(o.coverage);
  return line;
}

bool decodePipeRecord(const std::string& line,
                      experiment::RunObservation& o) {
  const std::vector<std::string_view> f = wire::splitFields(line);
  if (f.size() != 20) return false;
  bool ok = wire::parseU64(f[0], o.runIndex) && wire::parseU64(f[1], o.seed) &&
            wire::unescapeField(f[2], o.status) &&
            wire::parseBool(f[3], o.manifested) &&
            wire::parseBool(f[4], o.hasDetectors) &&
            wire::parseBool(f[5], o.detectorHit) &&
            wire::parseU64(f[6], o.warnings) &&
            wire::parseU64(f[7], o.trueWarnings) &&
            wire::parseU64(f[8], o.falseWarnings) &&
            wire::parseU64(f[9], o.deadlockPotentials) &&
            wire::parseDouble(f[10], o.wallSeconds) &&
            wire::parseU64(f[11], o.events) &&
            wire::parseU64(f[12], o.noiseInjections) &&
            wire::unescapeField(f[13], o.outcome) &&
            wire::unescapeField(f[14], o.failureMessage) &&
            wire::parseU32(f[15], o.attempts) &&
            wire::parseU64(f[16], o.dispatchDeliveries) &&
            wire::parseDouble(f[17], o.dispatchNsPerEvent) &&
            wire::unescapeField(f[18], o.postmortemPath);
  if (!ok) return false;
  try {
    // The blob must be a whole MSNP1 snapshot: a record cut inside its hex
    // is rejected, not read as a smaller coverage set.
    o.coverage = wire::fromHex(f[19]);
    if (!o.coverage.empty()) (void)coverage::Snapshot::decode(o.coverage);
  } catch (const std::runtime_error&) {
    return false;
  }
  return true;
}

}  // namespace mtt::farm
