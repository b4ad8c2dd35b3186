#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/snapshot.h"

namespace custody {

template <class Self, class Io>
void RunningStats::Fields(Self& self, Io& io) {
  // n_ is a scalar count, not a container length — plain u64, the reader's
  // size() sanity bound does not apply.
  io.u64(self.n_);
  io.f64(self.mean_);
  io.f64(self.m2_);
  io.f64(self.min_);
  io.f64(self.max_);
  io.f64(self.sum_);
}

void RunningStats::SaveTo(snap::SnapshotWriter& w) const { Fields(*this, w); }
void RunningStats::RestoreFrom(snap::SnapshotReader& r) { Fields(*this, r); }

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    throw std::invalid_argument("Percentile: empty sample set");
  }
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("Percentile: q must be in [0, 1] (got " +
                                std::to_string(q) + ")");
  }
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  RunningStats rs;
  for (double x : samples) rs.add(x);
  s.count = samples.size();
  s.mean = rs.mean();
  s.stddev = rs.stddev();
  s.min = samples.front();
  s.p25 = Percentile(samples, 0.25);
  s.median = Percentile(samples, 0.50);
  s.p75 = Percentile(samples, 0.75);
  s.p95 = Percentile(samples, 0.95);
  s.p99 = Percentile(samples, 0.99);
  s.max = samples.back();
  return s;
}

double GainPercent(double baseline, double ours) {
  if (baseline == 0.0) return 0.0;
  return (ours - baseline) / baseline * 100.0;
}

double ReductionPercent(double baseline, double ours) {
  if (baseline == 0.0) return 0.0;
  return (baseline - ours) / baseline * 100.0;
}

}  // namespace custody
