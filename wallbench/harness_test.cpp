// Unit tests for the benchmark's statistics (harness.hpp).  Plain checks
// that stay on in every build type; exit status 1 on any failure.
#include <cmath>
#include <cstdio>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void expect_near(const char* what, std::optional<double> got, double want,
                 double tol = 1e-9) {
  if (!got || std::fabs(*got - want) > tol) {
    std::printf("FAIL %s: got %s%.12g, want %.12g\n", what, got ? "" : "(none) ",
                got.value_or(0.0), want);
    failures++;
  }
}

void expect_none(const char* what, std::optional<double> got) {
  if (got) {
    std::printf("FAIL %s: got %.12g, want none\n", what, *got);
    failures++;
  }
}

void test_quantile() {
  using wallbench::quantile;
  // Type-7 quantiles: numpy.quantile([1, 2, 3, 4], q) gives these.
  const std::vector<double> v = {4, 1, 3, 2};
  expect_near("q0", quantile(v, 0.0), 1.0);
  expect_near("q25", quantile(v, 0.25), 1.75);
  expect_near("q50", quantile(v, 0.5), 2.5);
  expect_near("q75", quantile(v, 0.75), 3.25);
  expect_near("q100", quantile(v, 1.0), 4.0);
  expect_near("single sample", quantile({7.0}, 0.99), 7.0);
  expect_none("empty sample", quantile({}, 0.5));
  expect_none("q out of range", quantile(v, 1.5));
  // p99 of 0..999: position 0.99 * 999 = 989.01.
  std::vector<double> ramp;
  for (int i = 0; i < 1000; ++i) ramp.push_back(i);
  expect_near("p99 of a ramp", quantile(ramp, 0.99), 989.01, 1e-6);
  expect_near("median odd", wallbench::median({5, 1, 3}), 3.0);
  expect_near("median even", wallbench::median({5, 1, 3, 9}), 4.0);
}

void test_supported_percentile() {
  using wallbench::supported_percentile;
  expect_near("99 samples", supported_percentile(99), 0.5);
  expect_near("100 samples", supported_percentile(100), 0.9);
  expect_near("999 samples", supported_percentile(999), 0.9);
  expect_near("1000 samples", supported_percentile(1000), 0.99);
  expect_near("10000 samples", supported_percentile(10000), 0.999);
}

void test_metg() {
  using wallbench::metg;
  using wallbench::Rung;
  // Crossing halfway (in efficiency) between 16 and 32 us lands at the
  // geometric midpoint, sqrt(16 * 32).
  expect_near("log interpolation", metg({{8, 0.2}, {16, 0.4}, {32, 0.6}}),
              std::sqrt(16.0 * 32.0), 1e-9);
  // A quarter of the way: 16 * 2^0.25.
  expect_near("quarter crossing", metg({{16, 0.4}, {32, 0.8}}), 16.0 * std::pow(2.0, 0.25),
              1e-9);
  expect_near("exact hit", metg({{16, 0.3}, {32, 0.5}}), 32.0, 1e-9);
  expect_near("first rung already efficient", metg({{2, 0.7}, {4, 0.9}}), 2.0);
  expect_none("never efficient", metg({{2, 0.1}, {4, 0.2}}));
  expect_none("empty ladder", metg({}));
  // The first crossing wins even when a later rung dips again.
  expect_near("first crossing", metg({{4, 0.3}, {8, 0.5}, {16, 0.45}}), 8.0);
  expect_near("other target", metg({{10, 0.1}, {100, 0.9}}, 0.5), std::sqrt(1000.0), 1e-9);
}

}  // namespace

int main() {
  test_quantile();
  test_supported_percentile();
  test_metg();
  if (failures == 0) std::printf("wallbench harness tests passed\n");
  return failures == 0 ? 0 : 1;
}
