#include "coverage/snapshot.hpp"

#include <stdexcept>
#include <vector>

#include "core/wire.hpp"

namespace mtt::coverage {

namespace {

constexpr char kMagic[5] = {'M', 'S', 'N', 'P', '1'};

}  // namespace

double Snapshot::ratio() const {
  return known.empty() ? 0.0
                       : static_cast<double>(covered.size()) /
                             static_cast<double>(known.size());
}

void Snapshot::merge(const Snapshot& other) {
  covered.insert(other.covered.begin(), other.covered.end());
  known.insert(other.known.begin(), other.known.end());
  closed = closed || other.closed;
  outsideUniverse += other.outsideUniverse;
}

std::size_t Snapshot::novelty(const Snapshot& prior) const {
  std::size_t n = 0;
  for (const auto& t : covered) {
    if (prior.covered.find(t) == prior.covered.end()) ++n;
  }
  return n;
}

std::string Snapshot::encode() const {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  out.push_back(closed ? 1 : 0);
  wire::putVarint(out, outsideUniverse);
  wire::putVarint(out, known.size());
  for (const auto& t : known) wire::putBytes(out, t);
  // Both sets iterate sorted, so one merge walk yields each covered task's
  // rank in the encoded known list.
  wire::putVarint(out, covered.size());
  auto it = known.begin();
  std::uint64_t rank = 0;
  for (const auto& t : covered) {
    for (; it != known.end() && *it < t; ++it) ++rank;
    if (it == known.end() || *it != t) {
      throw std::logic_error(
          "coverage snapshot: covered task not in known set: " + t);
    }
    wire::putVarint(out, rank);
  }
  return out;
}

Snapshot Snapshot::decode(std::string_view bytes) {
  wire::Reader r(bytes, "coverage snapshot");
  const std::string_view magic(kMagic, sizeof(kMagic));
  const std::string_view head = r.bytes(magic.size() + 1);  // magic, flags
  if (head.substr(0, magic.size()) != magic) r.fail("bad magic");
  const auto flags = static_cast<std::uint8_t>(head.back());
  if (flags > 1) r.fail("unknown flags");
  Snapshot s;
  s.closed = (flags & 1) != 0;
  s.outsideUniverse = r.varint();
  const std::uint64_t knownCount = r.count(1, "known task");
  std::vector<std::string_view> tasks;
  tasks.reserve(static_cast<std::size_t>(knownCount));
  for (std::uint64_t i = 0; i < knownCount; ++i) {
    tasks.push_back(r.lenBytes());
    if (i > 0 && !(tasks[i - 1] < tasks[i])) r.fail("known list not sorted");
    s.known.emplace_hint(s.known.end(), tasks.back());
  }
  const std::uint64_t coveredCount = r.count(1, "covered task");
  if (coveredCount > knownCount) r.fail("covered exceeds known");
  for (std::uint64_t i = 0; i < coveredCount; ++i) {
    const std::uint64_t idx = r.varint();
    if (idx >= tasks.size()) r.fail("covered index out of range");
    s.covered.emplace(tasks[static_cast<std::size_t>(idx)]);
  }
  r.expectEnd();
  return s;
}

}  // namespace mtt::coverage
