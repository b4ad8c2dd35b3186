// Constant-memory quantile estimation for long-horizon runs.
//
// Exact percentiles need every sample; a million-job run must not keep a
// million JCT doubles per figure.  StreamingPercentile implements the P²
// algorithm (Jain & Chlamtac, CACM 1985): five markers track the target
// quantile with O(1) memory and a documented small relative error on smooth
// distributions.  StreamingSummary bundles one Welford accumulator (exact
// count/mean/stddev/min/max) with a P² bank for the quantiles the figure
// Summary struct reports.
//
// Accuracy contract (pinned by tests/streaming_stats_test.cpp and documented
// in EXPERIMENTS.md): count, mean, stddev, min and max are exact; p25–p99
// are estimates, within a few percent of the exact order statistics for the
// unimodal latency distributions the simulator produces.  Below kMarkers
// samples the estimator still holds every sample and returns exact
// interpolated percentiles.
#pragma once

#include <cstddef>

#include "common/stats.h"

namespace custody {

/// One P² marker bank tracking a single quantile q in [0, 1].
class StreamingPercentile {
 public:
  explicit StreamingPercentile(double q);

  void add(double x);

  /// Current estimate; 0 when no samples have been added.  Exact while
  /// fewer than `kMarkers` samples have arrived.
  [[nodiscard]] double value() const;
  [[nodiscard]] std::size_t count() const { return count_; }

  /// Exact round-trip of the marker bank (q is fixed at construction and
  /// re-checked on restore).
  void SaveTo(snap::SnapshotWriter& w) const;
  void RestoreFrom(snap::SnapshotReader& r);

  static constexpr std::size_t kMarkers = 5;

 private:
  template <class Self, class Io>
  static void Fields(Self& self, Io& io);

  double q_;
  std::size_t count_ = 0;
  double height_[kMarkers] = {};   ///< marker heights (quantile estimates)
  double pos_[kMarkers] = {};      ///< actual marker positions (1-based)
  double desired_[kMarkers] = {};  ///< desired marker positions
  double rate_[kMarkers] = {};     ///< desired-position increments per sample
};

/// Streaming replacement for Summarize(): exact moments, P² percentiles.
class StreamingSummary {
 public:
  StreamingSummary();

  void add(double x);

  [[nodiscard]] std::size_t count() const { return moments_.count(); }
  /// The same Summary shape the exact path produces, so result structs and
  /// reporting code cannot tell the two apart.
  [[nodiscard]] Summary summarize() const;

  void SaveTo(snap::SnapshotWriter& w) const;
  void RestoreFrom(snap::SnapshotReader& r);

 private:
  template <class Self, class Io>
  static void Fields(Self& self, Io& io);

  RunningStats moments_;
  StreamingPercentile p25_;
  StreamingPercentile p50_;
  StreamingPercentile p75_;
  StreamingPercentile p95_;
  StreamingPercentile p99_;
};

}  // namespace custody
