// Shared run-record codec: the JSONL observability encoding and the
// escaped-TSV framing that ships RunObservations across process
// boundaries — the MTTJOURNAL record payload and the mtt::fleet wire
// protocol (remote workers and the forked workers of --isolate alike) both
// speak this one format, so a record journaled by either is readable by
// both.
#pragma once

#include <string>

#include "experiment/experiment.hpp"

namespace mtt::farm {

/// The JSONL encoding of one run record, as streamed to FarmOptions::
/// jsonlPath (one object per line; `worker` is added by the streamer).
std::string toJson(const experiment::RunObservation& o);

/// Compact escaped tab-separated encoding used in journal record payloads
/// and in fleet RECORD frames, built on core/wire.hpp; round-trips exactly
/// (doubles via %.17g, coverage as MSNP1 hex).
std::string encodePipeRecord(const experiment::RunObservation& o);

/// Strict inverse of encodePipeRecord.  Returns false (leaving `o`
/// unspecified) on any malformed input — a field count other than 20, a
/// numeric field that is not a whole decimal token, a flag other than 0/1,
/// an unknown escape, coverage hex that is not a whole MSNP1 snapshot —
/// never throws or crashes, so truncated or corrupt frames surface as a
/// clean diagnostic at the caller.
bool decodePipeRecord(const std::string& line, experiment::RunObservation& o);

/// Zeroes the wall-clock-dependent fields of a record (wallSeconds,
/// dispatchNsPerEvent).  With FarmOptions::scrubTiming this runs at
/// delivery, making JSONL and journal bytes a pure function of
/// (program, tool config, seed) in controlled mode — the property the
/// fleet's byte-identical-report guarantee and CI byte-compares rest on.
inline void scrubTimingFields(experiment::RunObservation& o) {
  o.wallSeconds = 0.0;
  o.dispatchNsPerEvent = 0.0;
}

}  // namespace mtt::farm
