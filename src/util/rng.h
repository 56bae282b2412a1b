#ifndef PAWS_UTIL_RNG_H_
#define PAWS_UTIL_RNG_H_

#include <cstdint>
#include <vector>

namespace paws {

/// One splitmix64 step: advances `*state` and returns the next output.
/// Seeds Rng; on its own it drives the one-word streams behind reconnect
/// and probe jitter and fault-injection draws.
uint64_t SplitMix64(uint64_t* state);

/// The next splitmix64 output as a uniform double in [0, 1): its 53 high
/// bits scaled by 2^-53.
double SplitMix64Uniform(uint64_t* state);

/// Deterministic, fast pseudo-random number generator (xoshiro256**),
/// seeded via splitmix64. All stochastic components of the library
/// (synthetic parks, patrol simulation, bootstrap sampling, ...) take an
/// explicit Rng so experiments are reproducible from a single seed.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Uniform 64-bit integer.
  uint64_t NextUint64();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  int UniformInt(int n);

  /// Standard normal variate (Box-Muller, cached pair).
  double Normal();

  /// Normal variate with the given mean and standard deviation.
  double Normal(double mean, double stddev) { return mean + stddev * Normal(); }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Samples an index in [0, weights.size()) proportional to weights.
  /// Weights must be non-negative with a positive sum.
  int Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle of indices [0, n).
  std::vector<int> Permutation(int n);

  /// Samples k distinct indices from [0, n) without replacement (k <= n).
  std::vector<int> SampleWithoutReplacement(int n, int k);

  /// Forks an independent child generator; streams do not overlap in
  /// practice because the child is seeded by fresh output of this one.
  Rng Fork();

 private:
  uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace paws

#endif  // PAWS_UTIL_RNG_H_
