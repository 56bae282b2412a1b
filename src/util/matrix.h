#ifndef PAWS_UTIL_MATRIX_H_
#define PAWS_UTIL_MATRIX_H_

#include <vector>

#include "util/archive.h"
#include "util/status.h"

namespace paws {

/// Dense row-major matrix of doubles. Sized for the small/medium linear
/// algebra the library needs (Gaussian-process kernels, Cholesky solves,
/// simplex tableaus); not a general-purpose BLAS replacement.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows) * cols, fill) {
    CheckOrDie(rows >= 0 && cols >= 0, "Matrix dimensions must be >= 0");
  }

  static Matrix Identity(int n);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  double& operator()(int r, int c) {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double operator()(int r, int c) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  /// Raw pointer to row r (contiguous, cols() entries).
  double* Row(int r) { return data_.data() + static_cast<size_t>(r) * cols_; }
  const double* Row(int r) const {
    return data_.data() + static_cast<size_t>(r) * cols_;
  }

  Matrix Transpose() const;

  /// this * other. Requires cols() == other.rows().
  Matrix Multiply(const Matrix& other) const;

  /// this * v. Requires cols() == v.size().
  std::vector<double> MultiplyVector(const std::vector<double>& v) const;

  /// Archived bit-exact: shape, then the row-major payload.
  template <typename Io>
  friend void ArchiveFields(Io& io, ArchiveRef<Io, Matrix> m) {
    io(m.rows_, m.cols_, m.data_);
  }
  friend Status ArchiveLoaded(Matrix& m);

 private:
  int rows_;
  int cols_;
  std::vector<double> data_;
};

/// Lower-triangular Cholesky factor of a symmetric positive-definite matrix:
/// A = L L^T. Fails with Internal status if A is not (numerically) positive
/// definite.
StatusOr<Matrix> CholeskyFactor(const Matrix& a);

/// Solves L y = b for y with L lower triangular (forward substitution).
std::vector<double> ForwardSubstitute(const Matrix& l,
                                      const std::vector<double>& b);

/// Solves L^T x = y for x with L lower triangular (back substitution on the
/// transpose).
std::vector<double> BackSubstituteTranspose(const Matrix& l,
                                            const std::vector<double>& y);

/// Solves A x = b given the Cholesky factor L of A.
std::vector<double> CholeskySolve(const Matrix& l, const std::vector<double>& b);

/// Dot product. Requires equal sizes.
double Dot(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace paws

#endif  // PAWS_UTIL_MATRIX_H_
