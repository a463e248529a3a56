#include "bench_stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double PercentileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double n = static_cast<double>(sorted.size());
  // The epsilon keeps decimal quantiles such as 0.99 from rounding up a rank.
  size_t rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::string Tail::Label() const {
  if (q <= 0) return "none";
  // 0.5 -> "p50", 0.99 -> "p99", 0.999 -> "p99.9".
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%.10g", q * 100);
  return buf;
}

Tail SupportedTail(const std::vector<double>& sorted, size_t min_beyond) {
  Tail tail;
  tail.samples = sorted.size();
  // Ladder 0.5, 0.9, 0.99, ...: the number of samples beyond the rank of q
  // is n - ceil(q * n); keep climbing while it stays >= min_beyond.
  double q = 0.5;
  double beyond_frac = 0.5;
  const double n = static_cast<double>(sorted.size());
  while (true) {
    const double rank = std::ceil(q * n - 1e-9);
    if (n - rank < static_cast<double>(min_beyond)) break;
    tail.q = q;
    beyond_frac = beyond_frac == 0.5 ? 0.1 : beyond_frac / 10;
    q = 1 - beyond_frac;
  }
  if (tail.q > 0) tail.value = PercentileSorted(sorted, tail.q);
  return tail;
}

std::vector<double> LagFromVisibility(const std::vector<VisiblePoint>& curve,
                                      const std::vector<double>& due_us) {
  std::vector<double> lags;
  const uint64_t final_count = curve.empty() ? 0 : curve.back().count;
  const size_t n = std::min<size_t>(due_us.size(), final_count);
  lags.reserve(n);
  size_t k = 0;  // first curve point whose count reaches record i
  for (size_t i = 1; i <= n; ++i) {
    while (curve[k].count < i) ++k;
    lags.push_back(curve[k].t_us - due_us[i - 1]);
  }
  return lags;
}

double VisibleRate(const std::vector<VisiblePoint>& curve, uint64_t total) {
  const VisiblePoint* first = nullptr;
  for (const VisiblePoint& p : curve) {
    if (first == nullptr && p.count >= 1) first = &p;
    if (first != nullptr && p.count >= total) {
      const double span = p.t_us - first->t_us;
      if (span <= 0) return 0;
      return static_cast<double>(p.count - first->count) * 1e6 / span;
    }
  }
  return 0;
}

}  // namespace perfbench
