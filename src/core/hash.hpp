// FNV-1a, 64-bit: the one byte-string hash behind every stable identity in
// mtt — journal config digests and record checksums, failure-signature
// fingerprints, and the fleet worker's dial-jitter seed.  Stable across
// platforms and process runs (no pointers, no std::hash), so the values it
// produces may be stored in files and compared across machines.
#pragma once

#include <cstdint>
#include <string_view>

namespace mtt::core {

inline std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace mtt::core
