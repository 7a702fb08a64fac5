// The prepared experiments behind EXPERIMENTS.md, as one driver:
// `experiments [--filter REGEX]` runs every experiment whose whole id
// matches (all of them without a filter), in id order, and exits nonzero
// when a selected experiment misses its pass criterion.
//
// Each experiment is one `bool runXX()` in its own translation unit: it
// prints its tables to stdout, may save one BENCH_<name>.json in the
// working directory through saveJson, and returns whether its criterion
// held (experiments without a criterion return true).  Timing goes
// through bestWall / nsPerOp, so every figure is taken the same way.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/stats.hpp"
#include "experiment/experiment.hpp"

namespace mtt::bench {

// --- the experiments (id order) ---------------------------------------------

bool runC1();   // chaos fault-seam cost
bool runD1();   // hook dispatch cost
bool runE1();   // noise makers: likelihood of uncovering bugs
bool runE2();   // noise makers: performance overhead
bool runE3();   // race detectors on the annotated trace repository
bool runE4();   // replay likelihood and record overhead
bool runE5();   // coverage growth, feasibility, runs-needed
bool runE6();   // systematic exploration
bool runE7();   // MultiBenchmark outcome distributions
bool runE8();   // instrumentation cost and static filtering
bool runE9();   // schedule minimization
bool runE10();  // campaign throughput and durability
bool runE11();  // guided vs. fixed campaigns
bool runE12();  // fleet dispatch overhead and fold throughput
bool runE13();  // event-loop callback dispatch cost
bool runE14();  // the policy arsenal
bool runE15();  // weak-memory runtime cost
bool runF1();   // Figure 1 executed

// --- timing -------------------------------------------------------------------

/// Wall-clock seconds of the fastest of `reps` calls of `fn()`.
template <typename Fn>
double bestWall(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    Stopwatch clock;
    fn();
    best = std::min(best, clock.elapsedSeconds());
  }
  return best;
}

/// Nanoseconds per call over `iters` calls of `fn(i)`; every result is
/// added into a volatile sink so the calls cannot be optimized away.
template <typename Fn>
double nsPerOp(std::size_t iters, Fn&& fn) {
  volatile std::uint64_t sink = 0;
  const double sec = bestWall(1, [&] {
    for (std::size_t i = 0; i < iters; ++i) {
      sink = sink + static_cast<std::uint64_t>(fn(i));
    }
  });
  return sec * 1e9 / static_cast<double>(iters);
}

// --- BENCH_*.json -------------------------------------------------------------

/// One JSON value, rendered to text when it is built: objects print on one
/// line, arrays one element per line.
struct Json {
  using Fields = std::initializer_list<std::pair<std::string_view, Json>>;

  Json(bool v) : text(v ? "true" : "false") {}
  Json(double v);
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Json(T v) : text(std::to_string(v)) {}
  Json(std::string_view s);
  Json(const char* s) : Json(std::string_view(s)) {}
  Json(const std::string& s) : Json(std::string_view(s)) {}

  static Json object(Fields fields);
  static Json array(const std::vector<Json>& items);

  std::string text;

 private:
  Json() = default;
};

/// Writes BENCH_<bench>.json in the working directory: "schema",
/// "experiment" and "bench" first, then `fields` in order.
void saveJson(std::string_view experiment, std::string_view bench,
              Json::Fields fields);

// --- the farm / fleet campaign ------------------------------------------------

/// The campaign E10 and E12 time: `runs` controlled runs of
/// bounded_buffer_bug under the random scheduler with mixed noise at 0.3.
experiment::ExperimentSpec campaignSpec(std::size_t runs);
/// A campaign's timing-free find-rate report: equal strings mean the
/// campaigns computed the same result.
std::string reportLine(const experiment::ExperimentResult& r);

/// "yes" / "NO": the verdict cell of every identity column.
inline const char* yesNo(bool ok) { return ok ? "yes" : "NO"; }

}  // namespace mtt::bench
