#include "common/streaming_stats.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/snapshot.h"

namespace custody {

StreamingPercentile::StreamingPercentile(double q) : q_(q) {
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("StreamingPercentile: q must be in [0, 1] "
                                "(got " + std::to_string(q) + ")");
  }
}

void StreamingPercentile::add(double x) {
  if (count_ < kMarkers) {
    height_[count_++] = x;
    if (count_ == kMarkers) {
      std::sort(height_, height_ + kMarkers);
      for (std::size_t i = 0; i < kMarkers; ++i) {
        pos_[i] = static_cast<double>(i + 1);
      }
      desired_[0] = 1.0;
      desired_[1] = 1.0 + 2.0 * q_;
      desired_[2] = 1.0 + 4.0 * q_;
      desired_[3] = 3.0 + 2.0 * q_;
      desired_[4] = 5.0;
      rate_[0] = 0.0;
      rate_[1] = q_ / 2.0;
      rate_[2] = q_;
      rate_[3] = (1.0 + q_) / 2.0;
      rate_[4] = 1.0;
    }
    return;
  }
  ++count_;

  // Locate the cell containing x, extending the extreme markers if needed.
  std::size_t cell;
  if (x < height_[0]) {
    height_[0] = x;
    cell = 0;
  } else if (x >= height_[4]) {
    height_[4] = x;
    cell = 3;
  } else {
    cell = 0;
    while (cell < 3 && x >= height_[cell + 1]) ++cell;
  }
  for (std::size_t i = cell + 1; i < kMarkers; ++i) pos_[i] += 1.0;
  for (std::size_t i = 0; i < kMarkers; ++i) desired_[i] += rate_[i];

  // Nudge the interior markers toward their desired positions, adjusting
  // heights with the piecewise-parabolic (P²) prediction, falling back to
  // linear when the parabola would break marker monotonicity.
  for (std::size_t i = 1; i <= 3; ++i) {
    const double d = desired_[i] - pos_[i];
    if ((d >= 1.0 && pos_[i + 1] - pos_[i] > 1.0) ||
        (d <= -1.0 && pos_[i - 1] - pos_[i] < -1.0)) {
      const double sign = d >= 0.0 ? 1.0 : -1.0;
      const double np = pos_[i] + sign;
      const double parabolic =
          height_[i] +
          sign / (pos_[i + 1] - pos_[i - 1]) *
              ((pos_[i] - pos_[i - 1] + sign) * (height_[i + 1] - height_[i]) /
                   (pos_[i + 1] - pos_[i]) +
               (pos_[i + 1] - pos_[i] - sign) * (height_[i] - height_[i - 1]) /
                   (pos_[i] - pos_[i - 1]));
      if (height_[i - 1] < parabolic && parabolic < height_[i + 1]) {
        height_[i] = parabolic;
      } else {
        const std::size_t j = sign > 0.0 ? i + 1 : i - 1;
        height_[i] += sign * (height_[j] - height_[i]) / (pos_[j] - pos_[i]);
      }
      pos_[i] = np;
    }
  }
}

double StreamingPercentile::value() const {
  if (count_ == 0) return 0.0;
  if (count_ < kMarkers) {
    // Still holding raw samples: return the exact interpolated percentile.
    std::vector<double> sorted(height_, height_ + count_);
    std::sort(sorted.begin(), sorted.end());
    return Percentile(sorted, q_);
  }
  // The extreme markers track the running min/max exactly (the cell search
  // extends them on every out-of-range sample), so the 0th and 100th
  // percentiles need no estimation.
  if (q_ == 0.0) return height_[0];
  if (q_ == 1.0) return height_[kMarkers - 1];
  return height_[2];
}

template <class Self, class Io>
void StreamingPercentile::Fields(Self& self, Io& io) {
  double q = self.q_;
  io.f64(q);
  if (q != self.q_) {
    throw snap::SnapshotError(
        "StreamingPercentile quantile mismatch: snapshot has q=" +
        std::to_string(q) + ", this bank tracks q=" + std::to_string(self.q_));
  }
  io.u64(self.count_);
  for (auto* markers :
       {&self.height_, &self.pos_, &self.desired_, &self.rate_}) {
    for (auto& marker : *markers) io.f64(marker);
  }
}

void StreamingPercentile::SaveTo(snap::SnapshotWriter& w) const {
  Fields(*this, w);
}
void StreamingPercentile::RestoreFrom(snap::SnapshotReader& r) {
  Fields(*this, r);
}

template <class Self, class Io>
void StreamingSummary::Fields(Self& self, Io& io) {
  io.layer(self.moments_);
  for (auto* bank :
       {&self.p25_, &self.p50_, &self.p75_, &self.p95_, &self.p99_}) {
    io.layer(*bank);
  }
}

void StreamingSummary::SaveTo(snap::SnapshotWriter& w) const {
  Fields(*this, w);
}
void StreamingSummary::RestoreFrom(snap::SnapshotReader& r) {
  Fields(*this, r);
}

StreamingSummary::StreamingSummary()
    : p25_(0.25), p50_(0.50), p75_(0.75), p95_(0.95), p99_(0.99) {}

void StreamingSummary::add(double x) {
  moments_.add(x);
  p25_.add(x);
  p50_.add(x);
  p75_.add(x);
  p95_.add(x);
  p99_.add(x);
}

Summary StreamingSummary::summarize() const {
  Summary s;
  if (moments_.count() == 0) return s;
  s.count = moments_.count();
  s.mean = moments_.mean();
  s.stddev = moments_.stddev();
  s.min = moments_.min();
  s.max = moments_.max();
  s.p25 = p25_.value();
  s.median = p50_.value();
  s.p75 = p75_.value();
  s.p95 = p95_.value();
  s.p99 = p99_.value();
  return s;
}

}  // namespace custody
