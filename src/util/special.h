#ifndef PAWS_UTIL_SPECIAL_H_
#define PAWS_UTIL_SPECIAL_H_

namespace paws {

/// Natural log of the gamma function (Lanczos approximation).
/// Valid for x > 0.
double LogGamma(double x);

/// Regularized lower incomplete gamma function P(a, x) = gamma(a,x)/Gamma(a).
/// Requires a > 0, x >= 0. Series expansion for x < a+1, continued fraction
/// otherwise (Numerical Recipes gammp/gammq construction).
double RegularizedGammaP(double a, double x);

/// Regularized upper incomplete gamma function Q(a, x) = 1 - P(a, x).
double RegularizedGammaQ(double a, double x);

/// Survival function of the chi-squared distribution with k degrees of
/// freedom: Pr[X >= x]. This is the p-value of a chi-squared test statistic.
double ChiSquaredSurvival(double x, int degrees_of_freedom);

/// Logistic sigmoid 1 / (1 + exp(-x)), numerically stable for large |x|.
double Sigmoid(double x);

/// Natural log of (1 + exp(x)), numerically stable.
double Log1pExp(double x);

}  // namespace paws

#endif  // PAWS_UTIL_SPECIAL_H_
