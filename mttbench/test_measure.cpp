// Tests of the benchmark's own logic: order statistics, self time from
// nested spans, and the form of the result line.  Plain checks that stay
// on in every build type; exits 1 on the first failure.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "measure.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

template <typename F>
bool throws(F f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void testPercentiles() {
  using mttbench::percentile;
  expect(near(mttbench::median({5.0, 1.0, 3.0}), 3.0), "median of odd sample");
  expect(near(mttbench::median({4.0, 1.0, 3.0, 2.0}), 2.5),
         "median of even sample interpolates");
  expect(near(percentile({1, 2, 3, 4, 5}, 0.0), 1.0), "p0 is the minimum");
  expect(near(percentile({1, 2, 3, 4, 5}, 1.0), 5.0), "p100 is the maximum");
  expect(near(percentile({1, 2, 3, 4, 5}, 0.25), 2.0), "p25 on a rank");
  expect(near(percentile({10, 20}, 0.99), 19.9), "p99 interpolates");
  expect(near(percentile({7.0}, 0.99), 7.0), "single sample");
  expect(throws([] { percentile({}, 0.5); }), "empty sample throws");
  expect(throws([] { percentile({1.0}, 1.5); }), "rank above 1 throws");
  expect(near(mttbench::mean({1, 2, 3, 6}), 3.0), "mean");
}

void testSelfTime() {
  mttbench::Tracer t;
  // root [0,100] with children [10,30] and [20,50] (overlapping: covered
  // [10,50] = 40) and [60,70]; grandchild [12,18] under the first child.
  const int root = t.record("hunt.pass", 0, 100, -1);
  const int a = t.record("rt.run", 10, 30, root);
  t.record("rt.run", 20, 50, root);
  t.record("suite.make", 60, 70, root);
  t.record("rt.make", 12, 18, a);
  expect(t.selfNs(root) == 100 - 40 - 10, "self time of the root");
  expect(t.selfNs(a) == 20 - 6, "self time of a child with a grandchild");
  const auto by = t.selfNsByName();
  expect(by.at("hunt.pass") == 50, "selfNsByName root");
  expect(by.at("rt.run") == 14 + 30, "selfNsByName sums same-named spans");
  expect(by.at("rt.make") == 6, "selfNsByName leaf");
  const auto d = t.durationsUs("rt.run");
  expect(d.size() == 2 && near(d[0], 0.020) && near(d[1], 0.030),
         "durations in microseconds");
  // A child sticking out of its parent counts only inside the parent.
  mttbench::Tracer u;
  const int p = u.record("p", 100, 200, -1);
  u.record("c", 150, 260, p);
  expect(u.selfNs(p) == 50, "child clipped to the parent interval");
  // Live spans nest by begin/end order.
  mttbench::Tracer live;
  const int outer = live.begin("outer");
  const int inner = live.begin("inner");
  live.end(inner);
  live.end(outer);
  expect(live.spans()[1].parent == outer, "begin nests in the open span");
  expect(live.selfNs(outer) >= 0, "live self time is non-negative");
  bool threw = false;
  try {
    const int x = live.begin("x");
    live.begin("y");
    live.end(x);
  } catch (const std::logic_error&) {
    threw = true;
  }
  expect(threw, "closing a span out of order throws");
}

void testResultForm() {
  const std::string line = mttbench::resultJson(
      true, 12, 0,
      {{"wall_s", 0.25, "s"}, {"executions", 1010, "count"}});
  expect(line ==
             "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
             "\"metrics\": {\"wall_s\": {\"value\": 0.25, \"unit\": \"s\"}, "
             "\"executions\": {\"value\": 1010, \"unit\": \"count\"}}}",
         "result line form");
  const std::string precise =
      mttbench::resultJson(false, 1, 1, {{"x", 0.1, "s"}});
  expect(precise.find("0.10000000000000001") != std::string::npos,
         "values keep 17 significant digits");
  expect(precise.find("\"correct\": false") != std::string::npos,
         "correct false");
  expect(throws([] {
           mttbench::resultJson(true, 1, 0, {{"x", NAN, "s"}});
         }),
         "non-finite value throws");
  expect(throws([] {
           mttbench::resultJson(true, 1, 0, {{"x", 1, "s"}, {"x", 2, "s"}});
         }),
         "duplicate metric throws");
}

}  // namespace

int main() {
  testPercentiles();
  testSelfTime();
  testResultForm();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("mttbench_test: all checks passed\n");
  return 0;
}
