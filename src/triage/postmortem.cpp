#include "triage/postmortem.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/atomic_file.hpp"
#include "core/wire.hpp"

namespace mtt::triage {

PostmortemInfo loadPostmortem(const std::string& path,
                              const std::string& status) {
  std::string text;
  if (!core::readFile(path, text)) {
    throw std::runtime_error("cannot open postmortem file " + path);
  }
  PostmortemInfo info;
  info.scenario = replay::decodeScenario(text, path);

  info.signature.kind =
      status == "timeout" ? FailureKind::Timeout : FailureKind::Crash;

  // The annotation block is every committed line between the scenario's
  // "end" trailer (decodeScenario ignores what follows it) and
  // "endpostmortem".  The shape mirrors the in-process signatures:
  // normalized, sorted lines.  The signal stays verbatim (normalizing
  // "signal 11" to "signal #" would merge SIGSEGV and SIGBUS buckets);
  // event/heldlock lines are normalized so object and thread ids do not
  // split buckets.
  std::vector<std::string> eventTail;
  bool past = false;
  for (std::string_view view : wire::splitLines(text).complete) {
    const std::string line(view);
    if (!past) {
      past = line == "end";
    } else if (line == "endpostmortem") {
      break;
    } else if (line.rfind("postmortem signal ", 0) == 0) {
      std::uint32_t signo = 0;  // a mangled number reads as signal 0
      wire::parseU32(view.substr(18), signo);
      info.signal = static_cast<int>(signo);
      info.signature.shape.push_back("signal " +
                                     std::to_string(info.signal));
    } else if (line == "truncated") {
      info.truncated = true;
    } else if (line.rfind("heldlock ", 0) == 0) {
      info.signature.shape.push_back(normalizeTokens(line));
    } else if (line.rfind("event ", 0) == 0) {
      eventTail.push_back(normalizeTokens(line));
    }
  }
  // The last few events describe where the run died; a single combined
  // line keeps the order (a sorted shape would scramble it).
  const std::size_t keep = 8;
  if (!eventTail.empty()) {
    std::string tail = "tail:";
    std::size_t first = eventTail.size() > keep ? eventTail.size() - keep : 0;
    for (std::size_t i = first; i < eventTail.size(); ++i) {
      tail += " " + eventTail[i].substr(6);  // strip "event "
    }
    info.signature.shape.push_back(tail);
  }
  std::sort(info.signature.shape.begin(), info.signature.shape.end());
  return info;
}

InsertResult ingestPostmortem(Corpus& corpus, const std::string& path,
                              const std::string& status,
                              std::uint64_t discoveredEpoch) {
  PostmortemInfo info = loadPostmortem(path, status);
  return corpus.insert(info.scenario, info.signature,
                       /*replayVerified=*/false, /*shrunk=*/false,
                       discoveredEpoch);
}

}  // namespace mtt::triage
