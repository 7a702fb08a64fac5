// Shared run-record codec: the JSONL observability encoding and the
// escaped-TSV framing that ships RunObservations across process
// boundaries — the MTTJOURNAL record payload and the mtt::fleet wire
// protocol (remote workers and the forked workers of --isolate alike) both
// speak this one format, so a record journaled by either is readable by
// both.
#pragma once

#include <string>
#include <vector>

#include "experiment/experiment.hpp"

namespace mtt::farm {

/// The JSONL encoding of one run record, as streamed to FarmOptions::
/// jsonlPath (one object per line; `worker` is added by the streamer).
std::string toJson(const experiment::RunObservation& o);

/// Compact escaped tab-separated encoding used in journal record payloads
/// and in fleet RECORD frames; round-trips
/// exactly (doubles via %.17g, coverage as MSNP1 hex).
std::string encodePipeRecord(const experiment::RunObservation& o);

/// Strict inverse of encodePipeRecord.  Returns false (leaving `o`
/// unspecified) on any malformed input — wrong field count, non-numeric
/// numerics, bad coverage hex — never throws or crashes, so truncated or
/// corrupt frames surface as a clean diagnostic at the caller.
bool decodePipeRecord(const std::string& line, experiment::RunObservation& o);

// --- field-level helpers (shared with the fleet wire protocol) -----------

/// Appends `s` to `out` with '\\', '\t', '\n', '\r' escaped, so the result
/// can be embedded in a tab-separated, newline-terminated frame.
void appendEscapedField(std::string& out, const std::string& s);

/// Inverse of appendEscapedField for a single already-split field.
std::string unescapeField(const std::string& s);

/// Splits a frame line on raw tabs (escaped tabs survive inside fields).
std::vector<std::string> splitTabFields(const std::string& line);

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
