#include "core/wire.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <stdexcept>

namespace mtt::wire {

// --- binary ------------------------------------------------------------------

void putVarint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

void putBytes(std::string& out, std::string_view bytes) {
  putVarint(out, bytes.size());
  out.append(bytes);
}

void putU32le(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void Reader::fail(const std::string& why) const {
  throw std::runtime_error(std::string(format_) + ": " + why);
}

void Reader::need(std::uint64_t n) const {
  if (n > remaining()) {
    fail("truncated: needs " + std::to_string(n) + " bytes, " +
         std::to_string(remaining()) + " left");
  }
}

std::uint32_t Reader::u32le() {
  const std::string_view b = bytes(4);
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = v << 8 | static_cast<std::uint8_t>(b[i]);
  return v;
}

std::uint64_t Reader::u64le() {
  const std::uint64_t lo = u32le();
  return lo | static_cast<std::uint64_t>(u32le()) << 32;
}

std::uint64_t Reader::varint() {
  std::uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    need(1);
    const auto b = static_cast<std::uint8_t>(in_[pos_++]);
    // The tenth byte holds bit 63 only; anything more overflows 64 bits.
    if (shift == 63 && b > 1) fail("varint overflows 64 bits");
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
  }
}

std::uint32_t Reader::varint32() {
  const std::uint64_t v = varint();
  if (v > 0xffffffffull) {
    fail("varint " + std::to_string(v) + " overflows 32 bits");
  }
  return static_cast<std::uint32_t>(v);
}

std::string_view Reader::bytes(std::uint64_t n) {
  need(n);
  std::string_view out = in_.substr(pos_, static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return out;
}

std::string_view Reader::lenBytes() { return bytes(varint()); }

std::uint64_t Reader::fits(std::uint64_t n, std::size_t minBytesEach,
                           const char* what) {
  if (n > remaining() / minBytesEach) {
    fail("implausible " + std::string(what) + " count " + std::to_string(n) +
         " (" + std::to_string(remaining()) + " bytes left)");
  }
  return n;
}

void Reader::expectEnd() const {
  if (remaining() != 0) fail(std::to_string(remaining()) + " trailing bytes");
}

// --- text: numbers and hex ---------------------------------------------------

namespace {

template <typename T>
bool parseWhole(std::string_view s, T& out) {
  T v{};
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc() || ptr != end) return false;
  out = v;
  return true;
}

}  // namespace

bool parseU64(std::string_view s, std::uint64_t& out) {
  return parseWhole(s, out);
}

bool parseU32(std::string_view s, std::uint32_t& out) {
  return parseWhole(s, out);
}

bool parseDouble(std::string_view s, double& out) {
  return parseWhole(s, out);
}

bool parseBool(std::string_view s, bool& out) {
  if (s != "0" && s != "1") return false;
  out = s == "1";
  return true;
}

std::string formatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

int nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string hex16(std::uint64_t v) {
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) out[i] = kHexDigits[v & 0xf];
  return out;
}

bool parseHex16(std::string_view s, std::uint64_t& out) {
  if (s.size() != 16) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    const int d = nibble(c);
    if (d < 0) return false;
    v = v << 4 | static_cast<std::uint64_t>(d);
  }
  out = v;
  return true;
}

std::string toHex(std::string_view bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kHexDigits[c >> 4]);
    out.push_back(kHexDigits[c & 0xf]);
  }
  return out;
}

std::string fromHex(std::string_view hex) {
  if (hex.size() % 2 != 0) throw std::runtime_error("hex blob: odd length");
  std::string out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) throw std::runtime_error("hex blob: bad digit");
    out.push_back(static_cast<char>(hi << 4 | lo));
  }
  return out;
}

// --- text: escaped tab-separated fields --------------------------------------

void appendEscapedField(std::string& out, std::string_view s) {
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

bool unescapeField(std::string_view s, std::string& out) {
  std::string v;
  v.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      v += s[i];
      continue;
    }
    if (++i == s.size()) return false;
    switch (s[i]) {
      case '\\': v += '\\'; break;
      case 't': v += '\t'; break;
      case 'n': v += '\n'; break;
      case 'r': v += '\r'; break;
      default: return false;
    }
  }
  out = std::move(v);
  return true;
}

std::vector<std::string_view> splitFields(std::string_view s, char sep) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      fields.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return fields;
}

// --- text: JSON strings -----------------------------------------------------

void appendJsonString(std::string& out, std::string_view s) {
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

// --- text: lines and tokens --------------------------------------------------

Lines splitLines(std::string_view text) {
  Lines out;
  std::size_t start = 0;
  for (std::size_t nl; (nl = text.find('\n', start)) != std::string_view::npos;
       start = nl + 1) {
    out.complete.push_back(text.substr(start, nl - start));
  }
  out.tail = text.substr(start);
  return out;
}

Tokens::Tokens(std::string_view text)
    : text_(text.substr(0, text.rfind('\n') + 1)) {}

bool Tokens::next(std::string_view& tok) {
  constexpr std::string_view kBlank = " \t\n\r\v\f";
  const std::size_t start = text_.find_first_not_of(kBlank, pos_);
  if (start == std::string_view::npos) return false;
  pos_ = std::min(text_.find_first_of(kBlank, start), text_.size());
  tok = text_.substr(start, pos_ - start);
  return true;
}

}  // namespace mtt::wire
