#include "chaos/chaos.hpp"

#include <algorithm>
#include <cerrno>
#include <functional>
#include <stdexcept>
#include <string_view>

#include "core/backoff.hpp"
#include "core/wire.hpp"

namespace mtt::chaos {

const char* to_string(FaultClass c) {
  switch (c) {
    case FaultClass::Sever: return "sever";
    case FaultClass::Stall: return "stall";
    case FaultClass::ShortRead: return "short-read";
    case FaultClass::HeartbeatDup: return "hb-dup";
    case FaultClass::HeartbeatDelay: return "hb-delay";
    case FaultClass::DiskShort: return "disk-short";
    case FaultClass::DiskFull: return "disk-full";
    case FaultClass::FsyncFail: return "fsync-fail";
  }
  return "?";
}

namespace {

/// Which operations a fault class can fire on.
bool classMatchesOp(FaultClass c, core::FaultOp op) {
  switch (c) {
    case FaultClass::Sever:
    case FaultClass::Stall:
      return op == core::FaultOp::NetSend || op == core::FaultOp::NetRecv;
    case FaultClass::ShortRead:
      return op == core::FaultOp::NetRecv;
    case FaultClass::HeartbeatDup:
    case FaultClass::HeartbeatDelay:
      return op == core::FaultOp::HeartbeatSend;
    case FaultClass::DiskShort:
    case FaultClass::DiskFull:
      return op == core::FaultOp::DiskWrite;
    case FaultClass::FsyncFail:
      return op == core::FaultOp::DiskFsync;
  }
  return false;
}

bool parseClass(const std::string& name, FaultClass& out) {
  for (FaultClass c :
       {FaultClass::Sever, FaultClass::Stall, FaultClass::ShortRead,
        FaultClass::HeartbeatDup, FaultClass::HeartbeatDelay,
        FaultClass::DiskShort, FaultClass::DiskFull, FaultClass::FsyncFail}) {
    if (name == to_string(c)) {
      out = c;
      return true;
    }
  }
  return false;
}

[[noreturn]] void badPlan(const std::string& why) {
  throw std::runtime_error(
      "bad chaos plan: " + why +
      "\nplan grammar: rule[:key=value,...][+rule...]; rules: sever, stall, "
      "short-read, hb-dup, hb-delay, disk-short, disk-full, fsync-fail; "
      "keys: site=, prob=, after=, times=, ms=, bytes=; presets: sever, "
      "stall, partial, heartbeat, disk-full, fsync-fail");
}

/// Curated presets the CLI and the CI soak job reference by name.  A preset
/// is recognized only as a bare rule name with no keys; "sever:prob=0.1"
/// always means the raw rule.
std::vector<FaultRule> presetRules(const std::string& name) {
  auto rule = [](FaultClass cls, double prob) {
    FaultRule r;
    r.cls = cls;
    r.prob = prob;
    return r;
  };
  std::vector<FaultRule> out;
  if (name == "sever") {
    // Cut connections on both directions, but only once a little traffic
    // has flowed — severing the very first HELLO bytes every time would
    // starve the handshake instead of exercising mid-campaign recovery.
    FaultRule r = rule(FaultClass::Sever, 0.02);
    r.afterBytes = 1024;
    out.push_back(r);
  } else if (name == "stall") {
    FaultRule r = rule(FaultClass::Stall, 0.05);
    r.delay = std::chrono::milliseconds(40);
    out.push_back(r);
  } else if (name == "partial") {
    FaultRule r = rule(FaultClass::ShortRead, 0.25);
    r.bytes = 3;  // frames arrive in crumbs; parsers must hold state
    out.push_back(r);
  } else if (name == "heartbeat") {
    FaultRule d = rule(FaultClass::HeartbeatDup, 0.5);
    FaultRule l = rule(FaultClass::HeartbeatDelay, 0.5);
    l.delay = std::chrono::milliseconds(120);
    out.push_back(d);
    out.push_back(l);
  } else if (name == "disk-full") {
    FaultRule r = rule(FaultClass::DiskFull, 1.0);
    r.afterBytes = 4096;  // let the campaign make progress, then ENOSPC
    r.times = 1;
    r.site = "farm.journal";
    out.push_back(r);
  } else if (name == "fsync-fail") {
    FaultRule r = rule(FaultClass::FsyncFail, 1.0);
    r.times = 1;
    r.site = "farm.journal";
    out.push_back(r);
  }
  return out;
}

}  // namespace

std::vector<FaultRule> parsePlan(const std::string& spec) {
  if (spec.empty()) badPlan("empty spec");
  std::vector<FaultRule> rules;
  for (std::string_view rule : wire::splitFields(spec, '+')) {
    const std::string part(rule);
    if (part.empty()) badPlan("empty rule in '" + spec + "'");
    const std::size_t colon = part.find(':');
    const std::string name = part.substr(0, colon);
    if (colon == std::string::npos) {
      std::vector<FaultRule> preset = presetRules(name);
      if (!preset.empty()) {
        rules.insert(rules.end(), preset.begin(), preset.end());
        continue;
      }
    }
    FaultRule r;
    if (!parseClass(name, r.cls)) badPlan("unknown rule '" + name + "'");
    // Class-appropriate defaults before key overrides.
    if (r.cls == FaultClass::DiskFull || r.cls == FaultClass::FsyncFail) {
      r.prob = 1.0;
      r.times = 1;
    }
    if (colon != std::string::npos) {
      for (std::string_view item :
           wire::splitFields(rule.substr(colon + 1), ',')) {
        const std::string kv(item);
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos || eq == 0) {
          badPlan("bad key=value '" + kv + "' in rule '" + part + "'");
        }
        const std::string key = kv.substr(0, eq);
        const std::string val = kv.substr(eq + 1);
        std::uint64_t n = 0;
        bool ok = true;
        if (key == "site") {
          r.site = val;
        } else if (key == "prob") {
          ok = wire::parseDouble(val, r.prob) && r.prob >= 0.0 &&
               r.prob <= 1.0;
        } else if (key == "after") {
          ok = wire::parseU64(val, r.afterBytes);
        } else if (key == "times") {
          ok = wire::parseU64(val, n);
          r.times = static_cast<std::size_t>(n);
        } else if (key == "ms") {
          ok = wire::parseU64(val, n);
          r.delay = std::chrono::milliseconds(n);
        } else if (key == "bytes") {
          ok = wire::parseU64(val, n) && n > 0;
          r.bytes = static_cast<std::size_t>(n);
        } else {
          badPlan("unknown key '" + key + "' in rule '" + part + "'");
        }
        if (!ok) {
          badPlan("bad value '" + val + "' for key '" + key + "' in rule '" +
                  part + "'");
        }
      }
    }
    rules.push_back(r);
  }
  return rules;
}

std::string plansHelp() {
  return
      "  sever       cut connections at byte boundaries (after some traffic)\n"
      "  stall       delay sends/recvs by tens of milliseconds\n"
      "  partial     deliver frames in 3-byte crumbs (short reads)\n"
      "  heartbeat   duplicate and delay idle worker heartbeats\n"
      "  disk-full   journal write fails with ENOSPC after 4 KiB\n"
      "  fsync-fail  journal fsync fails with EIO\n";
}

FaultPlan::FaultPlan(std::vector<FaultRule> rules, std::uint64_t seed)
    : rules_(std::move(rules)),
      seed_(seed),
      triggersPerRule_(rules_.size(), 0) {}

core::FaultDecision FaultPlan::onOp(core::FaultOp op, const char* site,
                                    std::size_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  SiteState& st = sites_[site];
  const std::uint64_t opIndex = st.ops++;
  const std::uint64_t seenBytes = st.bytes;
  st.bytes += bytes;
  ++stats_.opsObserved;

  const std::uint64_t siteHash = core::backoff_detail::mix(
      std::hash<std::string_view>{}(std::string_view(site)));
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const FaultRule& r = rules_[i];
    if (!classMatchesOp(r.cls, op)) continue;
    if (!r.site.empty() &&
        std::string_view(site).find(r.site) == std::string_view::npos) {
      continue;
    }
    if (seenBytes < r.afterBytes) continue;
    if (r.times != 0 && triggersPerRule_[i] >= r.times) continue;
    // The deterministic draw: a pure mix of (seed, site, rule, op counter).
    // Thread interleaving changes which thread asks, never the answer a
    // given (site, opIndex) receives.
    const std::uint64_t draw = core::backoff_detail::mix(
        (seed_ ^ siteHash ^ (0x9e3779b97f4a7c15ull * (i + 1))) + opIndex);
    const double u = static_cast<double>(draw >> 11) * 0x1.0p-53;
    if (u >= r.prob) continue;

    ++triggersPerRule_[i];
    ++stats_.triggers;
    ++stats_.triggersByClass[to_string(r.cls)];
    stats_.trace.push_back(std::string(site) + "#" +
                           std::to_string(opIndex) + ":" + to_string(r.cls));

    core::FaultDecision d;
    using Action = core::FaultDecision::Action;
    switch (r.cls) {
      case FaultClass::Sever:
        d.action = Action::Sever;
        // Let a deterministic fraction of the requested bytes through so
        // the cut lands mid-frame, not only on frame boundaries.
        d.count = bytes > 1 ? (draw % bytes) : 0;
        break;
      case FaultClass::Stall:
        d.action = Action::Stall;
        d.delay = r.delay;
        break;
      case FaultClass::ShortRead:
        d.action = Action::Short;
        d.count = std::max<std::size_t>(r.bytes, 1);
        break;
      case FaultClass::HeartbeatDup:
        d.action = Action::Duplicate;
        d.count = 1;
        break;
      case FaultClass::HeartbeatDelay:
        d.action = Action::Stall;
        d.delay = r.delay;
        break;
      case FaultClass::DiskShort:
        d.action = Action::Short;
        d.count = std::min(std::max<std::size_t>(r.bytes, 1),
                           bytes > 0 ? bytes - 1 : 0);
        break;
      case FaultClass::DiskFull:
        d.action = Action::Fail;
        d.err = ENOSPC;
        break;
      case FaultClass::FsyncFail:
        d.action = Action::Fail;
        d.err = EIO;
        break;
    }
    return d;
  }
  return {};
}

FaultPlanStats FaultPlan::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  FaultPlanStats s = stats_;
  std::sort(s.trace.begin(), s.trace.end());
  return s;
}

}  // namespace mtt::chaos
