#include "util/special.h"

#include <cmath>
#include <limits>

#include "util/status.h"

namespace paws {

double LogGamma(double x) {
  CheckOrDie(x > 0.0, "LogGamma requires x > 0");
  // Lanczos approximation, g = 7, n = 9.
  static const double kCoef[9] = {
      0.99999999999980993,  676.5203681218851,   -1259.1392167224028,
      771.32342877765313,   -176.61502916214059, 12.507343278686905,
      -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7};
  if (x < 0.5) {
    // Reflection formula.
    return std::log(M_PI / std::sin(M_PI * x)) - LogGamma(1.0 - x);
  }
  const double z = x - 1.0;
  double sum = kCoef[0];
  for (int i = 1; i < 9; ++i) sum += kCoef[i] / (z + i);
  const double t = z + 7.5;
  return 0.5 * std::log(2.0 * M_PI) + (z + 0.5) * std::log(t) - t +
         std::log(sum);
}

namespace {

// Series representation of P(a, x), converges quickly for x < a + 1.
double GammaPSeries(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int n = 0; n < 500; ++n) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::fabs(del) < std::fabs(sum) * 1e-15) break;
  }
  return sum * std::exp(-x + a * std::log(x) - LogGamma(a));
}

// Continued-fraction representation of Q(a, x), for x >= a + 1.
double GammaQContinuedFraction(double a, double x) {
  const double kTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < 1e-15) break;
  }
  return std::exp(-x + a * std::log(x) - LogGamma(a)) * h;
}

}  // namespace

double RegularizedGammaP(double a, double x) {
  CheckOrDie(a > 0.0 && x >= 0.0, "RegularizedGammaP requires a > 0, x >= 0");
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return GammaPSeries(a, x);
  return 1.0 - GammaQContinuedFraction(a, x);
}

double RegularizedGammaQ(double a, double x) {
  CheckOrDie(a > 0.0 && x >= 0.0, "RegularizedGammaQ requires a > 0, x >= 0");
  if (x == 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - GammaPSeries(a, x);
  return GammaQContinuedFraction(a, x);
}

double ChiSquaredSurvival(double x, int degrees_of_freedom) {
  CheckOrDie(degrees_of_freedom > 0, "chi-squared dof must be positive");
  if (x <= 0.0) return 1.0;
  return RegularizedGammaQ(0.5 * degrees_of_freedom, 0.5 * x);
}

double Sigmoid(double x) {
  if (x >= 0.0) {
    const double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(x);
  return z / (1.0 + z);
}

double Log1pExp(double x) {
  if (x > 35.0) return x;
  if (x < -35.0) return std::exp(x);
  return std::log1p(std::exp(x));
}

}  // namespace paws
