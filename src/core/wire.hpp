// mtt::wire — the one codec kit behind every artifact format mtt trades
// between its tools: trace v1/v2 binary, MSNP1 coverage snapshots, MTTSCHED
// scenarios, MTTJOURNAL campaign journals, MTTGUIDE decision logs, the
// escaped-TSV pipe record, fleet payloads, the corpus metadata and the
// policy / chaos-plan grammars.
//
// Binary side: unsigned LEB128 varints (zigzag for signed deltas) appended
// to a std::string, and a bounds-checked Reader over a std::string_view.
// Every length and count the Reader hands out has been checked against the
// bytes left, so a corrupt length prefix can never make a decoder allocate
// more than its input; every failure is one std::runtime_error whose text
// starts with the format's name.
//
// Text side: strict whole-token decimal parsing (no sign, no whitespace, no
// trailing junk, no overflow), %.17g doubles that round-trip exactly, fixed
// 16-digit hex digests, blob hex, the escaped tab-separated field codec, the
// JSON string escaper, and the line split every append-only format shares:
// '\n' is the commit marker, so bytes after the last '\n' are a torn tail,
// never a record.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mtt::wire {

// --- binary ------------------------------------------------------------------

/// Appends `v` as an unsigned LEB128 varint (7 bits per byte, low first).
void putVarint(std::string& out, std::uint64_t v);
/// Appends a varint byte count, then the bytes.
void putBytes(std::string& out, std::string_view bytes);
/// Appends `v` as four little-endian bytes.
void putU32le(std::string& out, std::uint32_t v);

/// Zigzag maps signed deltas onto small unsigned varints (0,-1,1 -> 0,1,2).
constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
constexpr std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

/// Bounds-checked cursor over an encoded blob.  `format` names the format
/// in every diagnostic ("<format>: truncated ..."); it must outlive the
/// Reader (a string literal).
class Reader {
 public:
  Reader(std::string_view bytes, const char* format)
      : in_(bytes), format_(format) {}

  std::uint32_t u32le();
  std::uint64_t u64le();
  std::uint64_t varint();
  /// A varint that must fit 32 bits.
  std::uint32_t varint32();
  /// The next `n` raw bytes.
  std::string_view bytes(std::uint64_t n);
  /// A varint byte count, then that many bytes (putBytes' inverse).
  std::string_view lenBytes();
  /// Checks an element count read from the input: `n` items of at least
  /// `minBytesEach` (> 0) bytes must fit in what is left.  Returns `n`, so
  /// the caller may reserve that many elements.
  std::uint64_t fits(std::uint64_t n, std::size_t minBytesEach,
                     const char* what);
  /// A varint element count, checked by fits().
  std::uint64_t count(std::size_t minBytesEach, const char* what) {
    return fits(varint(), minBytesEach, what);
  }

  std::size_t remaining() const { return in_.size() - pos_; }
  /// Throws unless every byte was consumed.
  void expectEnd() const;
  [[noreturn]] void fail(const std::string& why) const;

 private:
  void need(std::uint64_t n) const;

  std::string_view in_;
  std::size_t pos_ = 0;
  const char* format_;
};

// --- text: numbers and hex ---------------------------------------------------

/// Strict decimal: the whole of `s` is digits and the value fits.  No sign,
/// no whitespace, no trailing junk.  False (out untouched) otherwise.
bool parseU64(std::string_view s, std::uint64_t& out);
bool parseU32(std::string_view s, std::uint32_t& out);
/// Strict floating point: the whole of `s` is one number ("%.17g" output,
/// "nan" and "inf" included).  No leading '+' or whitespace.
bool parseDouble(std::string_view s, double& out);
/// "0" or "1".
bool parseBool(std::string_view s, bool& out);

/// "%.17g": the shortest form guaranteed to parse back to the same double.
std::string formatDouble(double v);

/// A 64-bit digest as exactly 16 lowercase hex digits.
std::string hex16(std::uint64_t v);
/// Inverse of hex16: exactly 16 hex digits (either case).
bool parseHex16(std::string_view s, std::uint64_t& out);

/// Lowercase hex of raw bytes: how binary blobs ride in text carriers.
std::string toHex(std::string_view bytes);
/// Inverse of toHex; throws std::runtime_error on odd length or a non-hex
/// digit.
std::string fromHex(std::string_view hex);

// --- text: escaped tab-separated fields --------------------------------------

/// Appends `s` with '\\', '\t', '\n' and '\r' escaped, so the result can be
/// a field of a tab-separated, newline-terminated record.
void appendEscapedField(std::string& out, std::string_view s);
/// Inverse of appendEscapedField for one already-split field.  False on an
/// escape the encoder never writes (unknown letter, lone trailing '\\').
bool unescapeField(std::string_view s, std::string& out);
/// Splits on every `sep` (escaped tabs never contain a raw tab, so fields
/// split cleanly).  Always at least one field.
std::vector<std::string_view> splitFields(std::string_view s, char sep = '\t');

// --- text: JSON strings -----------------------------------------------------

/// Appends `s` as a quoted JSON string: '"' and '\\' escaped, '\n', '\r'
/// and '\t' by letter, every other byte below 0x20 as \u00XX.  Bytes from
/// 0x80 up pass through untouched (UTF-8 stays UTF-8).
void appendJsonString(std::string& out, std::string_view s);

// --- text: lines and tokens --------------------------------------------------

/// A text split at its commit markers.
struct Lines {
  /// Every '\n'-terminated line, without its '\n'.
  std::vector<std::string_view> complete;
  /// The bytes after the last '\n': a line its writer never finished.
  std::string_view tail;
};
Lines splitLines(std::string_view text);

/// Whitespace-separated tokens of the committed part of a text (everything
/// up to and including its last '\n'), so a token cut by truncation is
/// never read as if it were whole.
class Tokens {
 public:
  explicit Tokens(std::string_view text);
  /// The next token; false when none is left.
  bool next(std::string_view& tok);
  /// Bytes not yet consumed.
  std::size_t bytesLeft() const { return text_.size() - pos_; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace mtt::wire
