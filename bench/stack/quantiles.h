// Order statistics shared by the rep summaries, the probes and the report.

#ifndef EVC_BENCH_STACK_QUANTILES_H_
#define EVC_BENCH_STACK_QUANTILES_H_

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace evc::stack {

/// Nearest-rank quantile (q in [0,1]) of `values`; 0 when empty.
template <typename T>
double NearestRank(std::vector<T> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return static_cast<double>(values[index]);
}

/// Median, first and third quartile with linear interpolation between
/// order statistics (Python's statistics.quantiles "exclusive" method for
/// the quartiles, so bench reports match the usual tooling).
struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};

inline double InterpolatedQuantile(const std::vector<double>& sorted,
                                   double q) {
  // Exclusive method: position q * (n + 1), clamped to the sample range.
  const double n = static_cast<double>(sorted.size());
  double pos = q * (n + 1.0) - 1.0;
  pos = std::clamp(pos, 0.0, n - 1.0);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

inline Quartiles QuartilesOf(std::vector<double> values) {
  Quartiles out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  if (values.size() == 1) {
    out.q1 = out.median = out.q3 = values[0];
    return out;
  }
  out.q1 = InterpolatedQuantile(values, 0.25);
  out.q3 = InterpolatedQuantile(values, 0.75);
  const size_t n = values.size();
  out.median = n % 2 == 1 ? values[n / 2]
                          : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  return out;
}

inline double MedianOf(std::vector<double> values) {
  return QuartilesOf(std::move(values)).median;
}

}  // namespace evc::stack

#endif  // EVC_BENCH_STACK_QUANTILES_H_
