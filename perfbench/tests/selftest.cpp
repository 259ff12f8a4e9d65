// Tests of the benchmark's own arithmetic (perfbench/bench.hpp): medians,
// nearest-rank percentiles from known samples, the ledger residual and the
// failure share. Run with `python3 perfbench/run.py --self-test`.
#include <cmath>
#include <cstdio>
#include <vector>

#include "../bench.hpp"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-9) {
    std::printf("FAIL %s: got %.12g want %.12g\n", what, got, want);
    ++failures;
  }
}

}  // namespace

int main() {
  using namespace perfbench;

  expect_near(median({}), 0, "median of nothing");
  expect_near(median({7}), 7, "median of one");
  expect_near(median({3, 1, 2}), 2, "odd median");
  expect_near(median({4, 1, 3, 2}), 2.5, "even median");

  // 1..100 shuffled: nearest rank p50 = 50, p99 = 99, p99.9 = 100.
  std::vector<std::uint32_t> s;
  for (std::uint32_t i = 0; i < 100; ++i) s.push_back((i * 37) % 100 + 1);
  expect_near(static_cast<double>(sample_percentile(s, 0.50)), 50, "p50");
  expect_near(static_cast<double>(sample_percentile(s, 0.99)), 99, "p99");
  expect_near(static_cast<double>(sample_percentile(s, 0.999)), 100, "p99.9");
  expect_near(static_cast<double>(sample_percentile(s, 0.0)), 1, "p0");
  expect_near(static_cast<double>(sample_percentile(s, 1.0)), 100, "p100");
  // 1000 samples, ten of them slow: p99 (rank 990) is still fast, p99.9
  // (rank 999) is slow.
  std::vector<std::uint32_t> t(990, 10);
  t.insert(t.end(), 10, 5000);
  expect_near(static_cast<double>(sample_percentile(t, 0.99)), 10, "p99 fast");
  expect_near(static_cast<double>(sample_percentile(t, 0.999)), 5000,
              "p99.9 slow");
  std::vector<std::uint32_t> empty;
  expect_near(static_cast<double>(sample_percentile(empty, 0.5)), 0,
              "percentile of nothing");

  expect_near(residual_frac(1000, {400, 500}), 0.1, "residual");
  expect_near(residual_frac(1000, {1000}), 0, "no residual");
  expect_near(residual_frac(1000, {700, 400}), -0.1, "overlapping spans");
  expect_near(residual_frac(0, {5}), 0, "residual of no time");

  expect_near(fail_frac(0, 0), 0, "fail_frac of nothing");
  expect_near(fail_frac(200, 0), 0, "no failures");
  expect_near(fail_frac(200, 3), 0.015, "fail_frac");

  Result r;
  r.attempted = 10;
  r.violate("one");
  r.violate("two");
  expect_near(static_cast<double>(r.failed), 2, "violations count as failed");
  expect_near(fail_frac(r.attempted, r.failed), 0.2, "fail_frac of result");

  if (failures) return 1;
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
