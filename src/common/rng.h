// Deterministic random number generation for reproducible experiments.
//
// Every stochastic decision in the simulator draws from an Rng that is seeded
// from the experiment configuration, so two runs with the same seed produce
// identical traces.  `fork()` derives independent sub-streams so that, e.g.,
// block placement and the job submission schedule do not perturb each other
// when an unrelated parameter changes.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace custody::snap {
class SnapshotWriter;
class SnapshotReader;
}  // namespace custody::snap

namespace custody {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// Uniform integer in [lo, hi] (inclusive).
  [[nodiscard]] int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Uniform size_t in [0, n) — handy for indexing.
  [[nodiscard]] std::size_t index(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
  }

  /// Uniform real in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Exponentially distributed sample with the given mean.
  [[nodiscard]] double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Bernoulli trial with success probability p.
  [[nodiscard]] bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Normally distributed sample.
  [[nodiscard]] double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }

  /// Pick a uniformly random element (container must be non-empty).
  template <typename T>
  [[nodiscard]] const T& pick(const std::vector<T>& v) {
    return v[index(v.size())];
  }

  /// Derive an independent sub-stream. Deterministic in (seed, stream).
  [[nodiscard]] Rng fork(std::uint64_t stream) const {
    // SplitMix64-style mixing of the parent seed with the stream id.
    std::uint64_t z = seed_ + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return Rng(z ^ (z >> 31));
  }

  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] std::mt19937_64& engine() { return engine_; }

  /// Serialize the full engine state (and seed, so fork() keeps deriving
  /// the same sub-streams after a restore).  mt19937_64's stream operators
  /// round-trip the state exactly, so a restored stream produces the same
  /// draw sequence bit-for-bit.
  void SaveTo(snap::SnapshotWriter& w) const;
  void RestoreFrom(snap::SnapshotReader& r);

 private:
  template <class Self, class Io>
  static void Fields(Self& self, Io& io);

  std::mt19937_64 engine_;
  std::uint64_t seed_;
};

/// Zipf-distributed integers in [0, n), exponent `s` (s = 0 is uniform).
/// Used for skewed block/file popularity (Scarlett-style workloads).
class ZipfDistribution {
 public:
  ZipfDistribution(std::size_t n, double s);

  /// Sample an index; smaller indices are more popular.
  [[nodiscard]] std::size_t operator()(Rng& rng) const;

  /// Probability mass of index i.
  [[nodiscard]] double pmf(std::size_t i) const;

  [[nodiscard]] std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace custody
