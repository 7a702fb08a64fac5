#include "measure.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>

namespace mttbench {

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) throw std::invalid_argument("percentile of an empty sample");
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("percentile rank outside [0, 1]");
  }
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) throw std::invalid_argument("mean of an empty sample");
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::begin(std::string name) {
  const int parent = open_.empty() ? -1 : open_.back();
  const std::int64_t t = nowNs();
  spans_.push_back(Span{std::move(name), t, t, parent});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("Tracer::end: span " + std::to_string(id) +
                           " is not the innermost open span");
  }
  spans_[static_cast<std::size_t>(id)].endNs = nowNs();
  open_.pop_back();
}

int Tracer::record(std::string name, std::int64_t startNs, std::int64_t endNs,
                   int parent) {
  if (endNs < startNs) throw std::invalid_argument("span ends before it starts");
  if (parent >= static_cast<int>(spans_.size())) {
    throw std::invalid_argument("span parent does not exist");
  }
  spans_.push_back(Span{std::move(name), startNs, endNs, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::clear() {
  spans_.clear();
  open_.clear();
}

std::vector<double> Tracer::durationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.endNs - s.startNs) / 1e3);
    }
  }
  return out;
}

namespace {

// Union length of intervals clipped to [lo, hi].
std::int64_t coveredNs(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                       std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;
  for (auto [s, e] : iv) {
    s = std::max(s, reach);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      reach = e;
    }
  }
  return covered;
}

}  // namespace

std::int64_t Tracer::selfNs(int id) const {
  const Span& sp = spans_.at(static_cast<std::size_t>(id));
  std::vector<std::pair<std::int64_t, std::int64_t>> children;
  for (const Span& c : spans_) {
    if (c.parent == id) children.emplace_back(c.startNs, c.endNs);
  }
  return (sp.endNs - sp.startNs) -
         coveredNs(std::move(children), sp.startNs, sp.endNs);
}

std::map<std::string, std::int64_t> Tracer::selfNsByName() const {
  // One pass over the children per parent instead of selfNs per span.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size());
  for (const Span& c : spans_) {
    if (c.parent >= 0) {
      kids[static_cast<std::size_t>(c.parent)].emplace_back(c.startNs,
                                                            c.endNs);
    }
  }
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += (s.endNs - s.startNs) -
                   coveredNs(std::move(kids[i]), s.startNs, s.endNs);
  }
  return out;
}

double peakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launcher's peak when that was larger.
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("peakRssMb: no VmHWM in /proc/self/status");
}

std::uint64_t contextSwitches() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_nvcsw) +
         static_cast<std::uint64_t>(ru.ru_nivcsw);
}

int pinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = CPU_SETSIZE - 1; c >= 0 && cpu < 0; --c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) return -1;
  return cpu;
}

std::string resultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  std::set<std::string> seen;
  bool first = true;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      throw std::invalid_argument("metric " + m.name + " is not finite");
    }
    if (!seen.insert(m.name).second) {
      throw std::invalid_argument("metric " + m.name + " reported twice");
    }
    char num[40];
    std::snprintf(num, sizeof num, "%.17g", m.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace mttbench
