#include "util/rng.h"

#include <cmath>

#include "util/status.h"

namespace paws {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix64Uniform(uint64_t* state) {
  return static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
}

namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

int Rng::UniformInt(int n) {
  CheckOrDie(n > 0, "UniformInt requires n > 0");
  return static_cast<int>(NextUint64() % static_cast<uint64_t>(n));
}

double Rng::Normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = Uniform();
  while (u1 <= 1e-300) u1 = Uniform();
  const double u2 = Uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return r * std::cos(theta);
}

int Rng::Categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    CheckOrDie(w >= 0.0, "Categorical weights must be non-negative");
    total += w;
  }
  CheckOrDie(total > 0.0, "Categorical weights must have a positive sum");
  double u = Uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u <= 0.0) return static_cast<int>(i);
  }
  return static_cast<int>(weights.size()) - 1;
}

std::vector<int> Rng::Permutation(int n) {
  std::vector<int> idx(n);
  for (int i = 0; i < n; ++i) idx[i] = i;
  for (int i = n - 1; i > 0; --i) {
    const int j = UniformInt(i + 1);
    std::swap(idx[i], idx[j]);
  }
  return idx;
}

std::vector<int> Rng::SampleWithoutReplacement(int n, int k) {
  CheckOrDie(k >= 0 && k <= n, "SampleWithoutReplacement requires 0 <= k <= n");
  std::vector<int> idx = Permutation(n);
  idx.resize(k);
  return idx;
}

Rng Rng::Fork() { return Rng(NextUint64()); }

}  // namespace paws
