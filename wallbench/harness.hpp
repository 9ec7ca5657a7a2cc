// Statistics shared by the wall-clock benchmark and its unit tests: sample
// quantiles and the METG(50%) interpolation over a granularity ladder.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace wallbench {

// Sample quantile q in [0, 1] by linear interpolation between the two nearest
// order statistics (the "type 7" rule numpy and R use by default).  An empty
// sample has no quantile; callers report that as a failed measurement.
inline std::optional<double> quantile(std::vector<double> v, double q) {
  if (v.empty() || !(q >= 0.0 && q <= 1.0)) return std::nullopt;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

inline std::optional<double> median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

// Highest percentile of `n` samples with at least ten samples beyond it, in
// steps of the usual reporting points (p50, p90, p99, p99.9).  Reporting a
// percentile without that much tail support would just be the maximum.
inline double supported_percentile(std::size_t n) {
  double best = 0.5;
  for (double p : {0.9, 0.99, 0.999}) {
    // Tolerance: 1 - 0.9 is slightly below 0.1 in binary floating point.
    if (static_cast<double>(n) * (1.0 - p) >= 10.0 - 1e-9) best = p;
  }
  return best;
}

// One rung of a METG ladder: task granularity and the efficiency measured
// there (useful task time over processors x wall time).
struct Rung {
  double granularity_us = 0;
  double efficiency = 0;
};

// METG(target): the smallest granularity whose efficiency reaches `target`.
// The rungs must be in ascending granularity.  The crossing is interpolated
// linearly in log(granularity) between the last rung below the target and
// the first rung at or above it; a ladder whose first rung already reaches
// the target reports that rung.  A ladder that never reaches the target has
// no METG.
inline std::optional<double> metg(const std::vector<Rung>& ladder, double target = 0.5) {
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    if (ladder[i].efficiency < target) continue;
    if (i == 0) return ladder[0].granularity_us;
    const Rung& lo = ladder[i - 1];
    const Rung& hi = ladder[i];
    const double t = (target - lo.efficiency) / (hi.efficiency - lo.efficiency);
    const double lg = std::log(lo.granularity_us) +
                      t * (std::log(hi.granularity_us) - std::log(lo.granularity_us));
    return std::exp(lg);
  }
  return std::nullopt;
}

}  // namespace wallbench
