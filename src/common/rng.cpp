#include "common/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <string>
#include <utility>

#include "common/snapshot.h"

namespace custody {

template <class Self, class Io>
void Rng::Fields(Self& self, Io& io) {
  io.u64(self.seed_);
  // The engine travels as its text stream form.
  std::string engine;
  if constexpr (!Io::kLoading) {
    std::ostringstream out;
    out << self.engine_;
    engine = out.str();
  }
  io.str(engine);
  if constexpr (Io::kLoading) {
    std::istringstream in(std::move(engine));
    in >> self.engine_;
    if (in.fail()) {
      throw snap::SnapshotError("malformed mt19937_64 engine state");
    }
  }
}

void Rng::SaveTo(snap::SnapshotWriter& w) const { Fields(*this, w); }
void Rng::RestoreFrom(snap::SnapshotReader& r) { Fields(*this, r); }

ZipfDistribution::ZipfDistribution(std::size_t n, double s) {
  assert(n > 0);
  cdf_.resize(n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (auto& c : cdf_) c /= sum;
  cdf_.back() = 1.0;  // guard against rounding
}

std::size_t ZipfDistribution::operator()(Rng& rng) const {
  const double u = rng.uniform(0.0, 1.0);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin());
}

double ZipfDistribution::pmf(std::size_t i) const {
  assert(i < cdf_.size());
  return i == 0 ? cdf_[0] : cdf_[i] - cdf_[i - 1];
}

}  // namespace custody
