#include "triage/signature.hpp"

#include <algorithm>

#include "core/hash.hpp"
#include "core/site.hpp"
#include "core/wire.hpp"

namespace mtt::triage {

std::string_view to_string(FailureKind k) {
  switch (k) {
    case FailureKind::None:
      return "none";
    case FailureKind::Assert:
      return "assert";
    case FailureKind::Oracle:
      return "oracle";
    case FailureKind::Deadlock:
      return "deadlock";
    case FailureKind::StepLimit:
      return "step-limit";
    case FailureKind::Crash:
      return "crash";
    case FailureKind::Timeout:
      return "timeout";
  }
  return "none";
}

bool failure_kind_from_string(std::string_view name, FailureKind& out) {
  for (FailureKind k : {FailureKind::None, FailureKind::Assert,
                        FailureKind::Oracle, FailureKind::Deadlock,
                        FailureKind::StepLimit, FailureKind::Crash,
                        FailureKind::Timeout}) {
    if (name == to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

std::string normalizeTokens(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  bool inDigits = false;
  for (char c : s) {
    if (c >= '0' && c <= '9') {
      if (!inDigits) out += '#';
      inDigits = true;
    } else {
      inDigits = false;
      out += c;
    }
  }
  return out;
}

std::string FailureSignature::canonical() const {
  std::string out = "kind: ";
  out += to_string(kind);
  out += '\n';
  for (const auto& s : bugSites) {
    out += "site: ";
    out += s;
    out += '\n';
  }
  for (const auto& s : shape) {
    out += "shape: ";
    out += s;
    out += '\n';
  }
  return out;
}

std::string FailureSignature::fingerprint() const {
  // FNV-1a 64-bit over the canonical text: stable across platforms and
  // process runs.
  return wire::hex16(core::fnv1a64(canonical()));
}

void SignatureCollector::onRunStart(const RunInfo& info) {
  (void)info;
  std::lock_guard<std::mutex> lk(mu_);
  tags_.clear();
}

void SignatureCollector::resetTool() {
  std::lock_guard<std::mutex> lk(mu_);
  tags_.clear();
}

void SignatureCollector::onEvent(const Event& e) {
  if (e.bugSite != BugMark::Yes) return;
  const SiteInfo& si = SiteRegistry::instance().lookup(e.syncSite);
  std::string tag =
      si.tag.empty() ? si.file + ":" + std::to_string(si.line) : si.tag;
  std::lock_guard<std::mutex> lk(mu_);
  tags_.insert(std::move(tag));
}

std::vector<std::string> SignatureCollector::bugSiteTags() const {
  std::lock_guard<std::mutex> lk(mu_);
  return {tags_.begin(), tags_.end()};
}

FailureSignature makeSignature(const rt::RunResult& r, bool manifested,
                               const std::string& outcome,
                               std::vector<std::string> bugSiteTags) {
  FailureSignature sig;
  switch (r.status) {
    case rt::RunStatus::AssertFailed:
      sig.kind = FailureKind::Assert;
      sig.shape.push_back(normalizeTokens(r.failureMessage));
      break;
    case rt::RunStatus::Deadlock:
      sig.kind = FailureKind::Deadlock;
      for (const auto& b : r.blocked) {
        sig.shape.push_back(
            normalizeTokens(b.threadName + " waits " + b.waitingFor));
      }
      std::sort(sig.shape.begin(), sig.shape.end());
      break;
    case rt::RunStatus::StepLimit:
      sig.kind = FailureKind::StepLimit;
      break;
    case rt::RunStatus::Completed:
      if (manifested) {
        sig.kind = FailureKind::Oracle;
        sig.shape.push_back(normalizeTokens(outcome));
      }
      break;
    default:
      // Farm-supervised statuses (timeout/crashed/infra-error) never reach
      // signature computation: they carry no run to fingerprint.
      break;
  }
  sig.bugSites = std::move(bugSiteTags);
  std::sort(sig.bugSites.begin(), sig.bugSites.end());
  sig.bugSites.erase(std::unique(sig.bugSites.begin(), sig.bugSites.end()),
                     sig.bugSites.end());
  return sig;
}

}  // namespace mtt::triage
