//===- Stats.h - Sample summaries for the benchmark ------------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A timing is reported as its median plus the highest percentile that
/// still has at least ten samples beyond it, always together with the
/// sample count, so a reader never mistakes a three-sample median for a
/// distribution.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_PERFBENCH_STATS_H
#define CLOSER_PERFBENCH_STATS_H

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile \p Q in [0, 1] of \p Sorted (ascending,
/// non-empty).
inline double quantileSorted(const std::vector<double> &Sorted, double Q) {
  double Pos = Q * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

struct Summary {
  size_t N = 0;
  double Median = 0;
  double Mean = 0;
  double Q1 = 0; ///< Lower quartile.
  double Q3 = 0; ///< Upper quartile.
  /// The highest of p99/p90/p75/p50 with at least ten samples above it;
  /// 0 when there are fewer than 20 samples, and then High is unset.
  int HighPct = 0;
  double High = 0;
  double Min = 0;
  double Max = 0;
};

/// Summarizes \p Samples (any order). An empty input yields N == 0.
inline Summary summarize(std::vector<double> Samples) {
  Summary S;
  S.N = Samples.size();
  if (Samples.empty())
    return S;
  std::sort(Samples.begin(), Samples.end());
  for (double X : Samples)
    S.Mean += X / static_cast<double>(S.N);
  S.Median = quantileSorted(Samples, 0.5);
  S.Q1 = quantileSorted(Samples, 0.25);
  S.Q3 = quantileSorted(Samples, 0.75);
  S.Min = Samples.front();
  S.Max = Samples.back();
  for (int Pct : {99, 90, 75, 50}) {
    if (static_cast<double>(S.N) * (100 - Pct) / 100.0 >= 10.0) {
      S.HighPct = Pct;
      S.High = quantileSorted(Samples, Pct / 100.0);
      break;
    }
  }
  return S;
}

inline double median(std::vector<double> Samples) {
  return summarize(std::move(Samples)).Median;
}

} // namespace perfbench

#endif // CLOSER_PERFBENCH_STATS_H
