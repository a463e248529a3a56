// Arithmetic the pipeline benchmark reports with: the percentile rule, lag
// from a visibility curve, and the visible rate. Kept apart from
// pipeline_bench.cc so the self-tests can pin it down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `sorted` (ascending) at quantile q in [0, 1].
/// 0 when empty.
double PercentileSorted(const std::vector<double>& sorted, double q);

/// Median of `values` (any order); 0 when empty.
double Median(std::vector<double> values);

/// The tail a sample supports: the highest quantile on the ladder 0.5, 0.9,
/// 0.99, 0.999, ... that still has at least `min_beyond` samples strictly
/// above its rank, with the sample count it rests on.
struct Tail {
  double q = 0;       // 0 when the sample is too small for even the median
  double value = 0;
  size_t samples = 0;
  std::string Label() const;  // "p99.9", "p50", or "none"
};
Tail SupportedTail(const std::vector<double>& sorted, size_t min_beyond = 10);

/// One visibility observation: at time `t_us` the output dataset held
/// `count` records.
struct VisiblePoint {
  double t_us = 0;
  uint64_t count = 0;
};

/// Lag of record i (1-based) = time the visible count first reached i minus
/// `due_us[i-1]`. `curve` must be ordered by time with non-decreasing counts.
/// Records never observed get no lag; the result has min(due.size(), final
/// count) entries, in record order, in the unit of the inputs.
std::vector<double> LagFromVisibility(const std::vector<VisiblePoint>& curve,
                                      const std::vector<double>& due_us);

/// Records per second between the first point with count >= 1 and the first
/// point that reaches `total`. 0 when the curve never spans a positive time.
double VisibleRate(const std::vector<VisiblePoint>& curve, uint64_t total);

}  // namespace perfbench
