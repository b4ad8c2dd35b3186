// Streaming and batch statistics used by the metrics layer and the
// benchmark harness (mean ± stddev bars of Fig. 7, averages of Figs. 8–10).
#pragma once

#include <cstddef>
#include <vector>

namespace custody::snap {
class SnapshotWriter;
class SnapshotReader;
}  // namespace custody::snap

namespace custody {

/// Welford's online algorithm: numerically stable running mean/variance.
class RunningStats {
 public:
  void add(double x);

  /// Exact round-trip of the accumulator (all fields are plain doubles).
  void SaveTo(snap::SnapshotWriter& w) const;
  void RestoreFrom(snap::SnapshotReader& r);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Merge another accumulator into this one (parallel reduction friendly).
  void merge(const RunningStats& other);

 private:
  template <class Self, class Io>
  static void Fields(Self& self, Io& io);

  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Batch summary of a sample vector, including order statistics.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Compute a Summary; the input is copied and sorted internally.
[[nodiscard]] Summary Summarize(std::vector<double> samples);

/// Linear-interpolation percentile of a *sorted* sample, q in [0, 1].
/// Throws std::invalid_argument on an empty sample or q outside [0, 1]
/// (including NaN) — misuse fails loudly in every build type, not just
/// debug asserts.
[[nodiscard]] double Percentile(const std::vector<double>& sorted, double q);

/// Relative improvement of `ours` over `baseline` in percent:
/// (ours - baseline) / baseline * 100.  Positive means `ours` is larger.
[[nodiscard]] double GainPercent(double baseline, double ours);

/// Relative reduction of `ours` below `baseline` in percent (for times).
[[nodiscard]] double ReductionPercent(double baseline, double ours);

}  // namespace custody
