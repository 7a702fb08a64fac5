// The experiments driver: the registry, `--filter`, the JSON writer and
// the farm/fleet campaign shared by E10 and E12.
//
//   experiments                 every experiment, in id order
//   experiments --filter E1     only E1 (the whole id must match)
//   experiments --filter 'E1.*' E1 and E10..E15
//
// Exit status: 0 when every selected experiment met its criterion, 1 when
// one missed it (or threw), 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <regex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/wire.hpp"
#include "experiments.hpp"
#include "suite/program.hpp"

namespace mtt::bench {

// --- BENCH_*.json -------------------------------------------------------------

Json::Json(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  text = std::isfinite(v) ? buf : "null";
}

Json::Json(std::string_view s) { wire::appendJsonString(text, s); }

Json Json::object(Fields fields) {
  Json j;
  j.text = "{";
  for (const auto& [key, value] : fields) {
    if (j.text.size() > 1) j.text += ", ";
    wire::appendJsonString(j.text, key);
    j.text += ": " + value.text;
  }
  j.text += "}";
  return j;
}

Json Json::array(const std::vector<Json>& items) {
  Json j;
  j.text = "[";
  for (const Json& item : items) {
    j.text += (j.text.size() > 1 ? ",\n    " : "\n    ") + item.text;
  }
  j.text += items.empty() ? "]" : "\n  ]";
  return j;
}

void saveJson(std::string_view experiment, std::string_view bench,
              Json::Fields fields) {
  std::string out = "{\n  \"schema\": 1,\n  \"experiment\": " +
                    Json(experiment).text + ",\n  \"bench\": " +
                    Json(bench).text;
  for (const auto& [key, value] : fields) {
    out += ",\n  " + Json(key).text + ": " + value.text;
  }
  out += "\n}\n";
  const std::string path = "BENCH_" + std::string(bench) + ".json";
  std::ofstream f(path, std::ios::binary);
  f << out;
  if (!f.flush()) throw std::runtime_error("cannot write " + path);
  std::printf("wrote %s\n", path.c_str());
}

// --- the farm / fleet campaign ------------------------------------------------

experiment::ExperimentSpec campaignSpec(std::size_t runs) {
  experiment::ExperimentSpec spec;
  spec.programName = "bounded_buffer_bug";
  spec.runs = runs;
  spec.seedBase = 1;
  spec.tool.policy = "random";
  spec.tool.noiseName = "mixed";
  spec.tool.noiseOpts.strength = 0.3;
  return spec;
}

std::string reportLine(const experiment::ExperimentResult& r) {
  experiment::ReportOptions ro;
  ro.timing = false;
  return experiment::findRateReport("x", {r}, ro);
}

}  // namespace mtt::bench

namespace {

struct Experiment {
  const char* id;
  const char* title;
  bool (*run)();
};

using namespace mtt::bench;

// Id order: letter, then number.
const Experiment kExperiments[] = {
    {"C1", "chaos fault-seam cost", runC1},
    {"D1", "hook dispatch cost, masked vs. unmasked chain", runD1},
    {"E1", "noise makers: likelihood of uncovering bugs", runE1},
    {"E2", "noise makers: performance overhead", runE2},
    {"E3", "race detectors on the annotated trace repository", runE3},
    {"E4", "replay likelihood and record overhead", runE4},
    {"E5", "coverage growth, feasibility, runs-needed", runE5},
    {"E6", "systematic exploration", runE6},
    {"E7", "MultiBenchmark outcome distributions", runE7},
    {"E8", "instrumentation cost and static filtering", runE8},
    {"E9", "schedule minimization", runE9},
    {"E10", "campaign throughput and durability", runE10},
    {"E11", "guided vs. fixed campaigns", runE11},
    {"E12", "fleet dispatch overhead and fold throughput", runE12},
    {"E13", "event-loop callback dispatch cost", runE13},
    {"E14", "the policy arsenal", runE14},
    {"E15", "weak-memory runtime cost", runE15},
    {"F1", "Figure 1 executed", runF1},
};

int usage(const std::string& why) {
  std::fprintf(stderr,
               "experiments: %s\n"
               "usage: experiments [--filter REGEX]\n"
               "runs every experiment whose whole id matches REGEX (all "
               "without --filter):\n",
               why.c_str());
  for (const Experiment& e : kExperiments) {
    std::fprintf(stderr, "  %-4s %s\n", e.id, e.title);
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string filter = ".*";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg != "--filter") {
      return usage("unknown argument '" + std::string(arg) + "'");
    }
    if (i + 1 == argc) return usage("--filter needs a REGEX");
    filter = argv[++i];
  }
  std::regex re;
  try {
    re = std::regex(filter);
  } catch (const std::regex_error& e) {
    return usage("bad --filter '" + filter + "': " + e.what());
  }

  mtt::suite::registerBuiltins();
  std::size_t ran = 0;
  std::string missed;
  for (const Experiment& e : kExperiments) {
    if (!std::regex_match(e.id, re)) continue;
    ++ran;
    std::printf("=== %s: %s ===\n\n", e.id, e.title);
    std::fflush(stdout);
    bool ok = false;
    const double sec = bestWall(1, [&] {
      try {
        ok = e.run();
      } catch (const std::exception& ex) {
        std::printf("error: %s\n", ex.what());
      }
    });
    std::printf("\n%s: %s (%.2f s)\n\n", e.id, ok ? "ok" : "FAIL", sec);
    std::fflush(stdout);
    if (!ok) missed += std::string(" ") + e.id;
  }
  if (ran == 0) return usage("no experiment id matches '" + filter + "'");
  std::printf("%zu experiment(s); missed the criterion:%s\n", ran,
              missed.empty() ? " none" : missed.c_str());
  return missed.empty() ? 0 : 1;
}
