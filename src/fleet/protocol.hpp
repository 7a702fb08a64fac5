// mtt::fleet wire protocol — length-prefixed frames over a byte stream.
//
// Frame layout (all integers little-endian):
//
//   u32  length     byte count of everything after this field (>= 1)
//   u8   type       FrameType discriminator
//   u8[] payload    length-1 bytes, format per type
//
// Payloads are printable text built from core/wire.hpp's escaped-field
// codec, the same one the farm pipe records use: '\t' separates fields,
// '\n' terminates every line, embedded separators/backslashes are escaped,
// and binary blobs (coverage snapshots) ride as MSNP1 hex.  One codec for
// the journal and the wire keeps every record readable by every layer.
//
// Parsing discipline: tryParseFrame and every decode* function are total —
// any byte prefix of a valid stream yields NeedMore or a complete frame,
// and corrupt input yields a diagnostic, never a crash or an exception.
// The decoder harness (tests/test_wire.cpp) enforces this for every prefix
// and single-byte corruption of a HELLO/SPEC/LEASE/RECORD stream, as it
// does for every other mtt format.
//
// Conversation:
//
//   worker -> coordinator   HELLO (protocol version)
//   coordinator -> worker   SPEC (the campaign base RunSpec)
//   coordinator -> worker   LEASE (id + [index seed noise strength] runs)
//   worker -> coordinator   RECORD per finished run, then LEASE_DONE
//   worker -> coordinator   HEARTBEAT while idle
//   coordinator -> worker   QUIT when the campaign is over
//   either direction        ERROR with a diagnostic, then close
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/experiment.hpp"

namespace mtt::fleet {

/// Bumped on any incompatible payload change; HELLO carries it and the
/// coordinator refuses mismatched workers up front.
inline constexpr std::uint32_t kProtocolVersion = 1;

/// Upper bound on a single frame (sanity guard: a corrupt length prefix
/// must produce a diagnostic, not a 4 GiB allocation).
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

enum class FrameType : std::uint8_t {
  Hello = 'H',
  Spec = 'S',
  Lease = 'L',
  Record = 'R',
  LeaseDone = 'D',
  Heartbeat = 'B',
  Quit = 'Q',
  Error = 'E',
};

/// True for the discriminators this protocol version understands.
bool knownFrameType(std::uint8_t t);

struct Frame {
  FrameType type = FrameType::Heartbeat;
  std::string payload;
};

/// Serializes one frame (length prefix + type + payload).
std::string encodeFrame(FrameType type, const std::string& payload);

enum class ParseStatus : std::uint8_t {
  NeedMore,  ///< buffer holds a valid but incomplete frame prefix
  Ok,        ///< one frame extracted; `consumed` bytes may be dropped
  Corrupt,   ///< unrecoverable stream damage; `error` says what
};

struct ParseResult {
  ParseStatus status = ParseStatus::NeedMore;
  Frame frame;               ///< valid when status == Ok
  std::size_t consumed = 0;  ///< bytes of `buffer` this frame occupied
  std::string error;         ///< diagnostic when status == Corrupt
};

/// Incremental frame extraction from the front of `buffer`.  Never throws,
/// never reads past buffer.size(), never allocates more than one payload.
ParseResult tryParseFrame(const std::string& buffer);

// --- payload codecs -------------------------------------------------------
// Every decode returns false with a diagnostic in `err` on malformed input.

std::string encodeHello();
bool decodeHello(const std::string& payload, std::uint32_t& version,
                 std::string& err);

/// The campaign base spec a worker needs to execute assignments: program,
/// tool configuration, run-option overrides.  policyFactory does not
/// travel (the coordinator rejects specs carrying one); per-run noise
/// heuristic/strength overrides ride in the lease assignments instead.
std::string encodeSpec(const experiment::RunSpec& spec);
bool decodeSpec(const std::string& payload, experiment::RunSpec& out,
                std::string& err);

/// One unit of leased work: execute global run `index` with `seed`.
/// `noiseName` empty means the spec's own tool config; otherwise the
/// worker substitutes this heuristic and strength (how guided campaigns
/// fan bandit arms across the fleet).  `policy` empty means the spec's
/// own schedule policy; otherwise a parameterized policy spec
/// (experiment::makePolicy grammar) the worker substitutes — the wire
/// form of the guide's policy arm dimension.  Encoded as an optional
/// fifth lease field: version-1 coordinators emit four fields and
/// version-1 workers accept both, so mixed fleets stay compatible.
struct RunAssignment {
  std::uint64_t index = 0;
  std::uint64_t seed = 0;
  std::string noiseName;
  double strength = 0.0;
  std::string policy;
};

struct LeasePayload {
  std::uint64_t leaseId = 0;
  std::vector<RunAssignment> runs;
};

std::string encodeLease(const LeasePayload& lease);
bool decodeLease(const std::string& payload, LeasePayload& out,
                 std::string& err);

/// RECORD payload: the lease id, then the standard pipe-record encoding of
/// the observation (runIndex already remapped to the global index).
std::string encodeRecord(std::uint64_t leaseId,
                         const experiment::RunObservation& obs);
bool decodeRecord(const std::string& payload, std::uint64_t& leaseId,
                  experiment::RunObservation& obs, std::string& err);

std::string encodeLeaseDone(std::uint64_t leaseId);
bool decodeLeaseDone(const std::string& payload, std::uint64_t& leaseId,
                     std::string& err);

}  // namespace mtt::fleet
