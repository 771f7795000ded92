// Deterministic pseudo-random number generation (xoshiro256**).
//
// The standard <random> engines are either slow (mt19937_64 state) or
// under-specified across platforms; xoshiro256** is fast, tiny and gives
// identical streams everywhere, which keeps simulations reproducible.
#pragma once

#include <cstdint>

namespace ft {

// splitmix64 over (a, b): derives an independent, reproducible
// sub-seed -- per agent, per workload, per chaos schedule -- from one
// run seed.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t a,
                                               std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  // SplitMix64 seeding so that nearby seeds give unrelated streams.
  void reseed(std::uint64_t seed);

  [[nodiscard]] std::uint64_t next();

  // Uniform in [0, 1).
  [[nodiscard]] double uniform();

  // Uniform in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);

  // Uniform integer in [0, n). n must be > 0.
  [[nodiscard]] std::uint64_t below(std::uint64_t n);

  // Exponential with the given mean (> 0).
  [[nodiscard]] double exponential(double mean);

  // Fork an independent stream (for per-entity RNGs).
  [[nodiscard]] Rng fork();

 private:
  std::uint64_t s_[4];
};

}  // namespace ft
