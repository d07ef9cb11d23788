#include "util/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace hddm::util {

std::vector<double> Matrix::apply(const std::vector<double>& x) const {
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    const double* row = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

Matrix Matrix::multiply(const Matrix& other) const {
  Matrix out(rows_, other.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (std::size_t c = 0; c < other.cols_; ++c) out(r, c) += a * other(k, c);
    }
  }
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  return out;
}

LuFactorization::LuFactorization(Matrix a) : lu_(std::move(a)) {
  if (!factor_in_place()) throw SingularMatrixError("singular matrix in LU factorization");
}

bool LuFactorization::factor(const Matrix& a) {
  lu_ = a;
  return factor_in_place();
}

bool LuFactorization::factor_in_place() {
  const std::size_t n = lu_.rows();
  if (lu_.cols() != n) throw std::invalid_argument("LU requires a square matrix");
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
  perm_sign_ = 1;

  min_pivot_ = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest magnitude in column k at/below row k.
    std::size_t pivot_row = k;
    double pivot_mag = std::fabs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::fabs(lu_(r, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag < 1e-300) return false;
    min_pivot_ = std::min(min_pivot_, pivot_mag);

    if (pivot_row != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu_(k, c), lu_(pivot_row, c));
      std::swap(perm_[k], perm_[pivot_row]);
      perm_sign_ = -perm_sign_;
    }

    const double inv_pivot = 1.0 / lu_(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = lu_(r, k) * inv_pivot;
      lu_(r, k) = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) lu_(r, c) -= factor * lu_(k, c);
    }
  }
  return true;
}

std::vector<double> LuFactorization::solve(const std::vector<double>& b) const {
  std::vector<double> x(lu_.rows());
  solve(b, x);
  return x;
}

void LuFactorization::solve(std::span<const double> b, std::span<double> x) const {
  const std::size_t n = lu_.rows();
  if (b.size() != n || x.size() != n) throw std::invalid_argument("rhs size mismatch in LU solve");

  // Forward substitution on the permuted rhs (L has implicit unit diagonal).
  for (std::size_t r = 0; r < n; ++r) {
    double acc = b[perm_[r]];
    for (std::size_t c = 0; c < r; ++c) acc -= lu_(r, c) * x[c];
    x[r] = acc;
  }
  // Backward substitution with U.
  for (std::size_t ri = n; ri-- > 0;) {
    double acc = x[ri];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= lu_(ri, c) * x[c];
    x[ri] = acc / lu_(ri, ri);
  }
}

double LuFactorization::determinant() const {
  double det = perm_sign_;
  for (std::size_t i = 0; i < lu_.rows(); ++i) det *= lu_(i, i);
  return det;
}

std::vector<double> solve_dense(Matrix a, const std::vector<double>& b) {
  return LuFactorization(std::move(a)).solve(b);
}

}  // namespace hddm::util
