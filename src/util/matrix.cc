#include "util/matrix.h"

#include <cmath>

namespace paws {

Matrix Matrix::Identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  CheckOrDie(cols_ == other.rows(), "Matrix::Multiply shape mismatch");
  Matrix out(rows_, other.cols());
  for (int r = 0; r < rows_; ++r) {
    for (int k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      const double* orow = other.Row(k);
      double* outrow = out.Row(r);
      for (int c = 0; c < other.cols(); ++c) outrow[c] += a * orow[c];
    }
  }
  return out;
}

std::vector<double> Matrix::MultiplyVector(const std::vector<double>& v) const {
  CheckOrDie(cols_ == static_cast<int>(v.size()),
             "Matrix::MultiplyVector shape mismatch");
  std::vector<double> out(rows_, 0.0);
  for (int r = 0; r < rows_; ++r) {
    const double* row = Row(r);
    double sum = 0.0;
    for (int c = 0; c < cols_; ++c) sum += row[c] * v[c];
    out[r] = sum;
  }
  return out;
}

StatusOr<Matrix> CholeskyFactor(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  const int n = a.rows();
  Matrix l(n, n);
  for (int j = 0; j < n; ++j) {
    double d = a(j, j);
    for (int k = 0; k < j; ++k) d -= l(j, k) * l(j, k);
    if (d <= 0.0 || !std::isfinite(d)) {
      return Status::Internal("Cholesky: matrix is not positive definite");
    }
    l(j, j) = std::sqrt(d);
    const double inv = 1.0 / l(j, j);
    for (int i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (int k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s * inv;
    }
  }
  return l;
}

std::vector<double> ForwardSubstitute(const Matrix& l,
                                      const std::vector<double>& b) {
  const int n = l.rows();
  CheckOrDie(static_cast<int>(b.size()) == n, "ForwardSubstitute size");
  std::vector<double> y(n);
  for (int i = 0; i < n; ++i) {
    double s = b[i];
    for (int k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s / l(i, i);
  }
  return y;
}

std::vector<double> BackSubstituteTranspose(const Matrix& l,
                                            const std::vector<double>& y) {
  const int n = l.rows();
  CheckOrDie(static_cast<int>(y.size()) == n, "BackSubstituteTranspose size");
  std::vector<double> x(n);
  for (int i = n - 1; i >= 0; --i) {
    double s = y[i];
    for (int k = i + 1; k < n; ++k) s -= l(k, i) * x[k];
    x[i] = s / l(i, i);
  }
  return x;
}

std::vector<double> CholeskySolve(const Matrix& l,
                                  const std::vector<double>& b) {
  return BackSubstituteTranspose(l, ForwardSubstitute(l, b));
}

Status ArchiveLoaded(Matrix& m) {
  if (m.rows_ < 0 || m.cols_ < 0 ||
      m.data_.size() != static_cast<size_t>(m.rows_) * m.cols_) {
    return Status::InvalidArgument("Matrix: payload size does not match shape");
  }
  return Status::OK();
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  CheckOrDie(a.size() == b.size(), "Dot size mismatch");
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace paws
