// Small dense linear algebra: column-major matrix, LU factorization with
// partial pivoting, and triangular solves.
//
// The per-grid-point equilibrium systems of the OLG model are dense and small
// (d = A-1 ≈ 60 unknowns in the paper's configuration), so an in-house
// O(n^3) LU is both sufficient and dependency-free — it replaces the linear
// algebra Ipopt would otherwise provide (see DESIGN.md substitutions).
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

namespace hddm::util {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  /// Reshapes to rows x cols, reusing the storage (allocates only to grow
  /// past the largest size seen); entry values are unspecified afterwards.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }

  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
  }

  /// Matrix-vector product y = A x.
  [[nodiscard]] std::vector<double> apply(const std::vector<double>& x) const;

  /// Matrix-matrix product.
  [[nodiscard]] Matrix multiply(const Matrix& other) const;

  [[nodiscard]] Matrix transposed() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting: PA = LU. The constructor throws
/// SingularMatrixError when a pivot underflows. A default-constructed object
/// is a reusable factorization workspace: factor() refactorizes in place in
/// the storage of earlier calls, so a solver that refreshes its Jacobian
/// every iteration allocates nothing once warmed up.
class LuFactorization {
 public:
  LuFactorization() = default;
  explicit LuFactorization(Matrix a);

  /// Replaces the factors with those of `a` (square). Returns false when a
  /// pivot underflows; the factors are then unusable.
  [[nodiscard]] bool factor(const Matrix& a);

  /// Solves A x = b using the stored factors.
  [[nodiscard]] std::vector<double> solve(const std::vector<double>& b) const;
  /// Allocation-free form: writes the solution into `x` (size n, distinct
  /// from `b`).
  void solve(std::span<const double> b, std::span<double> x) const;

  /// Determinant from the product of pivots (with permutation sign).
  [[nodiscard]] double determinant() const;

  /// Infinity-norm condition estimate is not needed; expose pivot magnitude
  /// instead (smallest |U_ii|), a cheap singularity indicator.
  [[nodiscard]] double min_pivot_magnitude() const { return min_pivot_; }

 private:
  /// Factorizes lu_ in place; false on a vanishing pivot.
  bool factor_in_place();

  Matrix lu_;
  std::vector<std::size_t> perm_;
  int perm_sign_ = 1;
  double min_pivot_ = 0.0;
};

class SingularMatrixError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Convenience one-shot solve of A x = b.
std::vector<double> solve_dense(Matrix a, const std::vector<double>& b);

}  // namespace hddm::util
