#include "core/anderson.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hddm::core {

namespace {

// A difference column whose squared norm is at most this fraction of the
// newest residual's carries no secant information: a repeated p_next gives
// exactly zero.
constexpr double kDegenerate = 1e-16;
// A column whose squared distance to the span of the newer kept columns is
// at most this fraction of its squared norm is dropped as dependent.
constexpr double kDependent = 1e-10;

}  // namespace

AndersonMixer::AndersonMixer(int depth) : depth_(depth) {
  if (depth < 0) throw std::invalid_argument("AndersonMixer: depth must be >= 0");
}

void AndersonMixer::clear() {
  first_ = 0;
  count_ = 0;
}

MixOutcome AndersonMixer::mix(std::span<const std::unique_ptr<ShockGrid>> grids,
                              std::span<const std::span<const double>> residuals) {
  MixOutcome out;
  if (depth_ == 0) return out;
  const std::size_t ns = grids.size();
  if (residuals.size() != ns)
    throw std::invalid_argument("AndersonMixer::mix: one residual block per shock");

  double norm2 = 0.0;
  for (std::size_t z = 0; z < ns; ++z) {
    if (residuals[z].empty() || residuals[z].size() % grids[z]->num_points() != 0)
      throw std::invalid_argument("AndersonMixer::mix: residual rows do not match the grid");
    for (const double r : residuals[z]) norm2 += r * r;
  }

  // History rules: a new point set or a growing residual restarts it.
  if (count_ > 0) {
    bool same_points = pairs_.size() == ns;
    for (std::size_t z = 0; same_points && z < ns; ++z)
      same_points = grids[z]->dense().pairs == pairs_[z];
    if (!same_points || norm2 > entry(count_ - 1).norm2) {
      clear();
      out.restarted = true;
    }
  }
  if (count_ == 0) {
    pairs_.resize(ns);
    for (std::size_t z = 0; z < ns; ++z) pairs_[z] = grids[z]->dense().pairs;
  }

  // Record the step in the ring's next slot, or over the oldest entry.
  entries_.resize(static_cast<std::size_t>(depth_) + 1);
  if (count_ == entries_.size())
    first_ = (first_ + 1) % entries_.size();
  else
    ++count_;
  Entry& now = entry(count_ - 1);
  std::size_t nsurplus = 0, nresidual = 0;
  for (std::size_t z = 0; z < ns; ++z) {
    nsurplus += grids[z]->dense().surplus.size();
    nresidual += residuals[z].size();
  }
  now.surplus.resize(nsurplus);
  now.residual.resize(nresidual);
  for (std::size_t z = 0, s = 0, r = 0; z < ns; ++z) {
    const auto& surplus = grids[z]->dense().surplus;
    std::copy(surplus.begin(), surplus.end(), now.surplus.begin() + static_cast<std::ptrdiff_t>(s));
    std::copy(residuals[z].begin(), residuals[z].end(),
              now.residual.begin() + static_cast<std::ptrdiff_t>(r));
    s += surplus.size();
    r += residuals[z].size();
  }
  now.norm2 = norm2;

  const std::size_t m = count_ - 1;  // difference columns f_{a+1} - f_a
  if (m == 0) return out;

  // Gram matrix of the difference columns and their products with the
  // newest residual, summed in shock order, then point order.
  gram_.assign(m * m, 0.0);
  rhs_.assign(m, 0.0);
  delta_.resize(m);
  const std::vector<double>& fk = now.residual;
  for (std::size_t i = 0; i < fk.size(); ++i) {
    for (std::size_t a = 0; a < m; ++a)
      delta_[a] = entry(a + 1).residual[i] - entry(a).residual[i];
    for (std::size_t a = 0; a < m; ++a) {
      rhs_[a] += delta_[a] * fk[i];
      for (std::size_t c = 0; c <= a; ++c) gram_[a * m + c] += delta_[a] * delta_[c];
    }
  }
  const auto gram = [&](std::size_t a, std::size_t c) {
    return a >= c ? gram_[a * m + c] : gram_[c * m + a];
  };

  // Cholesky factor of the kept columns' Gram matrix, newest column first:
  // degenerate columns and columns dependent on newer kept ones are dropped.
  kept_.clear();
  chol_.assign(m * m, 0.0);
  for (std::size_t a = m; a-- > 0;) {
    const double gaa = gram(a, a);
    if (!(gaa > kDegenerate * norm2)) continue;
    const std::size_t k = kept_.size();
    double* row = chol_.data() + k * m;
    double pivot = gaa;
    for (std::size_t q = 0; q < k; ++q) {
      double s = gram(a, kept_[q]);
      for (std::size_t r = 0; r < q; ++r) s -= row[r] * chol_[q * m + r];
      row[q] = s / chol_[q * m + q];
      pivot -= row[q] * row[q];
    }
    if (!(pivot > kDependent * gaa)) continue;
    row[k] = std::sqrt(pivot);
    kept_.push_back(a);
  }
  const std::size_t k = kept_.size();
  out.columns = static_cast<int>(k);
  if (k == 0) return out;

  // Solve L L^T y = rhs over the kept columns (y in delta_), scatter to gamma.
  for (std::size_t q = 0; q < k; ++q) {
    double s = rhs_[kept_[q]];
    for (std::size_t r = 0; r < q; ++r) s -= chol_[q * m + r] * delta_[r];
    delta_[q] = s / chol_[q * m + q];
  }
  for (std::size_t q = k; q-- > 0;) {
    double s = delta_[q];
    for (std::size_t r = q + 1; r < k; ++r) s -= chol_[r * m + q] * delta_[r];
    delta_[q] = s / chol_[q * m + q];
  }
  gamma_.assign(m, 0.0);
  for (std::size_t q = 0; q < k; ++q) gamma_[kept_[q]] = delta_[q];

  // x_{k+1} = g_k - sum_a gamma_a (g_{a+1} - g_a), on each shock's surpluses.
  std::size_t offset = 0;
  for (std::size_t z = 0; z < ns; ++z) {
    const std::size_t n = grids[z]->dense().surplus.size();
    mixed_.assign(now.surplus.begin() + static_cast<std::ptrdiff_t>(offset),
                  now.surplus.begin() + static_cast<std::ptrdiff_t>(offset + n));
    for (std::size_t a = 0; a < m; ++a) {
      if (gamma_[a] == 0.0) continue;
      const double* hi = entry(a + 1).surplus.data() + offset;
      const double* lo = entry(a).surplus.data() + offset;
      for (std::size_t i = 0; i < n; ++i) mixed_[i] -= gamma_[a] * (hi[i] - lo[i]);
    }
    grids[z]->replace_surpluses(mixed_);
    offset += n;
  }
  return out;
}

}  // namespace hddm::core
