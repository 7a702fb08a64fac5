// Frame and payload codecs for the fleet wire protocol, built on
// core/wire.hpp.  Everything here is a pure function of its input bytes: no
// I/O, no globals — which is what lets the decoder harness (tests/
// test_wire.cpp) feed it every prefix and corruption of a real stream.
#include "fleet/protocol.hpp"

#include "core/wire.hpp"
#include "farm/record_io.hpp"

namespace mtt::fleet {

bool knownFrameType(std::uint8_t t) {
  switch (static_cast<FrameType>(t)) {
    case FrameType::Hello:
    case FrameType::Spec:
    case FrameType::Lease:
    case FrameType::Record:
    case FrameType::LeaseDone:
    case FrameType::Heartbeat:
    case FrameType::Quit:
    case FrameType::Error:
      return true;
  }
  return false;
}

std::string encodeFrame(FrameType type, const std::string& payload) {
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size() + 1);
  std::string out;
  out.reserve(4 + length);
  wire::putU32le(out, length);
  out += static_cast<char>(type);
  out += payload;
  return out;
}

ParseResult tryParseFrame(const std::string& buffer) {
  ParseResult r;
  if (buffer.size() < 4) {
    r.status = ParseStatus::NeedMore;
    return r;
  }
  const std::uint32_t length = wire::Reader(buffer, "fleet frame").u32le();
  if (length == 0) {
    r.status = ParseStatus::Corrupt;
    r.error = "fleet frame with zero length (missing type byte)";
    return r;
  }
  if (length > kMaxFrameBytes) {
    r.status = ParseStatus::Corrupt;
    r.error = "fleet frame length " + std::to_string(length) +
              " exceeds the " + std::to_string(kMaxFrameBytes) +
              "-byte limit (corrupt stream?)";
    return r;
  }
  // Validate the type as soon as it is visible: a corrupt discriminator
  // should not wait for a possibly-large payload to arrive.
  if (buffer.size() >= 5 && !knownFrameType(
          static_cast<std::uint8_t>(buffer[4]))) {
    r.status = ParseStatus::Corrupt;
    r.error = "unknown fleet frame type byte " +
              std::to_string(static_cast<unsigned char>(buffer[4]));
    return r;
  }
  if (buffer.size() < 4u + length) {
    r.status = ParseStatus::NeedMore;
    return r;
  }
  r.status = ParseStatus::Ok;
  r.frame.type = static_cast<FrameType>(buffer[4]);
  r.frame.payload = buffer.substr(5, length - 1);
  r.consumed = 4u + length;
  return r;
}

// --- HELLO ----------------------------------------------------------------

std::string encodeHello() {
  return "MTTFLEET " + std::to_string(kProtocolVersion);
}

bool decodeHello(const std::string& payload, std::uint32_t& version,
                 std::string& err) {
  const std::string magic = "MTTFLEET ";
  if (payload.compare(0, magic.size(), magic) != 0) {
    err = "HELLO payload does not start with \"MTTFLEET \"";
    return false;
  }
  if (!wire::parseU32(std::string_view(payload).substr(magic.size()),
                       version)) {
    err = "HELLO payload carries a malformed protocol version";
    return false;
  }
  return true;
}

// --- SPEC -----------------------------------------------------------------

namespace {

void appendSpecLine(std::string& out, const char* key,
                    const std::string& value) {
  out += key;
  out += '\t';
  wire::appendEscapedField(out, value);
  out += '\n';
}

}  // namespace

std::string encodeSpec(const experiment::RunSpec& spec) {
  std::string out = "MTTSPEC 1\n";
  appendSpecLine(out, "program", spec.programName);
  appendSpecLine(out, "mode", spec.tool.mode == RuntimeMode::Controlled
                                  ? "controlled"
                                  : "native");
  appendSpecLine(out, "policy", spec.tool.policy);
  appendSpecLine(out, "noise", spec.tool.noiseName);
  appendSpecLine(out, "strength",
                 wire::formatDouble(spec.tool.noiseOpts.strength));
  appendSpecLine(out, "max-yields",
                 std::to_string(spec.tool.noiseOpts.maxYields));
  appendSpecLine(out, "max-sleep-native",
                 std::to_string(spec.tool.noiseOpts.maxSleepNative));
  appendSpecLine(out, "max-sleep-controlled",
                 std::to_string(spec.tool.noiseOpts.maxSleepControlled));
  for (const std::string& t : spec.tool.noiseTargets) {
    appendSpecLine(out, "target", t);
  }
  for (const std::string& d : spec.tool.detectors) {
    appendSpecLine(out, "detector", d);
  }
  appendSpecLine(out, "lock-graph", spec.tool.lockGraph ? "1" : "0");
  appendSpecLine(out, "coverage", spec.tool.coverage);
  appendSpecLine(out, "closed-universe",
                 spec.tool.coverageClosedUniverse ? "1" : "0");
  appendSpecLine(out, "seed-base", std::to_string(spec.seedBase));
  if (spec.runOptions.has_value()) {
    appendSpecLine(out, "max-steps", std::to_string(spec.runOptions->maxSteps));
    appendSpecLine(out, "block-timeout-ms",
                   std::to_string(spec.runOptions->blockTimeout.count()));
    appendSpecLine(out, "dispatch-timing",
                   spec.runOptions->dispatchTiming ? "1" : "0");
  }
  return out;
}

bool decodeSpec(const std::string& payload, experiment::RunSpec& out,
                std::string& err) {
  const wire::Lines lines = wire::splitLines(payload);
  if (lines.complete.empty() || lines.complete[0] != "MTTSPEC 1") {
    err = "SPEC payload missing the \"MTTSPEC 1\" header";
    return false;
  }
  if (!lines.tail.empty()) {
    err = "SPEC payload ends in an unterminated line";
    return false;
  }
  experiment::RunSpec spec;
  bool sawProgram = false;
  rt::RunOptions runOpts;
  bool sawRunOpts = false;
  for (std::size_t i = 1; i < lines.complete.size(); ++i) {
    const std::string_view line = lines.complete[i];
    const std::vector<std::string_view> f = wire::splitFields(line);
    std::string value;
    if (f.size() != 2 || !wire::unescapeField(f[1], value)) {
      err = "SPEC line " + std::to_string(i + 1) +
            " is not a key/value pair: \"" + std::string(line) + "\"";
      return false;
    }
    const std::string_view key = f[0];
    bool ok = true;
    if (key == "program") {
      spec.programName = value;
      sawProgram = true;
    } else if (key == "mode") {
      if (value == "controlled") {
        spec.tool.mode = RuntimeMode::Controlled;
      } else if (value == "native") {
        spec.tool.mode = RuntimeMode::Native;
      } else {
        ok = false;
      }
    } else if (key == "policy") {
      spec.tool.policy = value;
    } else if (key == "noise") {
      spec.tool.noiseName = value;
    } else if (key == "strength") {
      ok = wire::parseDouble(value, spec.tool.noiseOpts.strength);
    } else if (key == "max-yields") {
      ok = wire::parseU32(value, spec.tool.noiseOpts.maxYields);
    } else if (key == "max-sleep-native") {
      ok = wire::parseU32(value, spec.tool.noiseOpts.maxSleepNative);
    } else if (key == "max-sleep-controlled") {
      ok = wire::parseU32(value, spec.tool.noiseOpts.maxSleepControlled);
    } else if (key == "target") {
      spec.tool.noiseTargets.insert(value);
    } else if (key == "detector") {
      spec.tool.detectors.push_back(value);
    } else if (key == "lock-graph") {
      ok = wire::parseBool(value, spec.tool.lockGraph);
    } else if (key == "coverage") {
      spec.tool.coverage = value;
    } else if (key == "closed-universe") {
      ok = wire::parseBool(value, spec.tool.coverageClosedUniverse);
    } else if (key == "seed-base") {
      ok = wire::parseU64(value, spec.seedBase);
    } else if (key == "max-steps") {
      ok = wire::parseU64(value, runOpts.maxSteps);
      sawRunOpts = true;
    } else if (key == "block-timeout-ms") {
      std::uint64_t ms = 0;
      ok = wire::parseU64(value, ms);
      runOpts.blockTimeout = std::chrono::milliseconds(ms);
      sawRunOpts = true;
    } else if (key == "dispatch-timing") {
      ok = wire::parseBool(value, runOpts.dispatchTiming);
      sawRunOpts = true;
    } else {
      err = "SPEC carries unknown key \"" + std::string(key) +
            "\" (worker and coordinator builds differ?)";
      return false;
    }
    if (!ok) {
      err = "SPEC key \"" + std::string(key) + "\" has malformed value \"" +
            value + "\"";
      return false;
    }
  }
  if (!sawProgram) {
    err = "SPEC payload names no program";
    return false;
  }
  if (sawRunOpts) spec.runOptions = runOpts;
  out = std::move(spec);
  return true;
}

// --- LEASE ----------------------------------------------------------------

std::string encodeLease(const LeasePayload& lease) {
  std::string out = std::to_string(lease.leaseId);
  out += '\n';
  for (const RunAssignment& a : lease.runs) {
    out += std::to_string(a.index);
    out += '\t';
    out += std::to_string(a.seed);
    out += '\t';
    wire::appendEscapedField(out, a.noiseName);
    out += '\t';
    out += wire::formatDouble(a.strength);
    if (!a.policy.empty()) {
      // Optional fifth field: omitted when empty so plain campaigns emit
      // the exact version-1 wire bytes (mixed fleets stay compatible).
      out += '\t';
      wire::appendEscapedField(out, a.policy);
    }
    out += '\n';
  }
  return out;
}

bool decodeLease(const std::string& payload, LeasePayload& out,
                 std::string& err) {
  const wire::Lines lines = wire::splitLines(payload);
  if (lines.complete.empty()) {
    err = "LEASE payload is empty";
    return false;
  }
  if (!lines.tail.empty()) {
    err = "LEASE payload ends in an unterminated line";
    return false;
  }
  LeasePayload lease;
  if (!wire::parseU64(lines.complete[0], lease.leaseId)) {
    err = "LEASE payload carries a malformed lease id \"" +
          std::string(lines.complete[0]) + "\"";
    return false;
  }
  for (std::size_t i = 1; i < lines.complete.size(); ++i) {
    const std::vector<std::string_view> f =
        wire::splitFields(lines.complete[i]);
    RunAssignment a;
    if ((f.size() != 4 && f.size() != 5) || !wire::parseU64(f[0], a.index) ||
        !wire::parseU64(f[1], a.seed) ||
        !wire::unescapeField(f[2], a.noiseName) ||
        !wire::parseDouble(f[3], a.strength) ||
        (f.size() == 5 && !wire::unescapeField(f[4], a.policy))) {
      err = "LEASE assignment line " + std::to_string(i + 1) +
            " is malformed: \"" + std::string(lines.complete[i]) + "\"";
      return false;
    }
    lease.runs.push_back(std::move(a));
  }
  out = std::move(lease);
  return true;
}

// --- RECORD / LEASE_DONE --------------------------------------------------

std::string encodeRecord(std::uint64_t leaseId,
                         const experiment::RunObservation& obs) {
  return std::to_string(leaseId) + '\t' + farm::encodePipeRecord(obs);
}

bool decodeRecord(const std::string& payload, std::uint64_t& leaseId,
                  experiment::RunObservation& obs, std::string& err) {
  const std::size_t tab = payload.find('\t');
  if (tab == std::string::npos ||
      !wire::parseU64(std::string_view(payload).substr(0, tab), leaseId)) {
    err = "RECORD payload carries a malformed lease id prefix";
    return false;
  }
  if (!farm::decodePipeRecord(payload.substr(tab + 1), obs)) {
    err = "RECORD payload carries a malformed pipe record";
    return false;
  }
  return true;
}

std::string encodeLeaseDone(std::uint64_t leaseId) {
  return std::to_string(leaseId);
}

bool decodeLeaseDone(const std::string& payload, std::uint64_t& leaseId,
                     std::string& err) {
  if (!wire::parseU64(payload, leaseId)) {
    err = "LEASE_DONE payload carries a malformed lease id";
    return false;
  }
  return true;
}

}  // namespace mtt::fleet
