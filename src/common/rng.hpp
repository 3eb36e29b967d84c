#pragma once
// Deterministic random number generation (PCG32). Every simulation object
// derives its stream from a root seed so runs are exactly reproducible.

#include <cstdint>

namespace ndsm {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL, std::uint64_t stream = 1);

  // Uniform 32-bit value.
  std::uint32_t next_u32();
  std::uint64_t next_u64();

  // Uniform double in [0, 1).
  double uniform();
  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  // True with probability p.
  bool bernoulli(double p);
  // Exponential with the given mean (> 0).
  double exponential(double mean);
  // Normal via Box-Muller.
  double normal(double mean, double stddev);

  // Derive an independent child stream (for per-node RNGs).
  Rng fork(std::uint64_t salt);

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

// splitmix64: used for seed scrambling / hashing small integers.
std::uint64_t splitmix64(std::uint64_t x);

// Counter-based (stateless) draws: the value is a pure function of the
// seed and the key tuple, independent of how many draws happened before
// it. Sequential Rng streams make a draw depend on the whole draw history
// of that stream, which ties results to one particular execution order;
// keyed draws are what lets the sharded simulation engine produce
// bit-identical loss/fault decisions no matter how the world is
// partitioned or how many workers execute it (see sim/simulator.hpp).
[[nodiscard]] std::uint64_t hash_u64(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
                                     std::uint64_t c = 0);
// Uniform double in [0, 1) derived from hash_u64 (53-bit mantissa).
[[nodiscard]] double hash_uniform(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
                                  std::uint64_t c = 0);

}  // namespace ndsm
