// Deterministic pseudo-random number generation.
//
// Every randomized component in this library takes an explicit seed so that
// experiments are reproducible row-by-row. We provide:
//   * SplitMix64 — tiny seeding/stream-splitting generator.
//   * Xoshiro256StarStar — fast general-purpose generator (the workhorse),
//     satisfying std::uniform_random_bit_generator so it plugs into <random>.
//
// Both are implemented from their published reference algorithms
// (Vigna et al.); no std::mt19937 is used because its 2.5 KB state makes
// cheap stream-splitting for per-experiment sub-generators awkward.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>

namespace cca::common {

/// SplitMix64: 64-bit generator with 64-bit state. Used to seed and to
/// derive independent substreams (`split`).
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256**: the library's general-purpose PRNG.
/// Deterministically seeded from a single 64-bit value via SplitMix64,
/// per the authors' recommended seeding procedure.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256StarStar(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double next_double() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) using Lemire's unbiased method.
  std::uint64_t next_below(std::uint64_t bound);

  /// Derives an independent substream; useful to give each experiment
  /// component its own generator from one master seed.
  Xoshiro256StarStar split() { return Xoshiro256StarStar((*this)()); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

/// The library-wide default generator alias.
using Rng = Xoshiro256StarStar;

/// Derives the seed of a named component stream from one user-facing seed.
/// `label` is absorbed byte-by-byte (FNV-1a) and the result finalized
/// through the SplitMix64 mixer, so
///   * distinct labels give statistically independent streams even when
///     components share the same `seed`, and
///   * a component's stream depends only on its own label — registering a
///     new named stream never shifts an existing one.
/// Components that seed themselves from a user seed should route through
/// this instead of ad-hoc XOR constants (which risk colliding when two
/// components run in one process):
///   common::Rng rng(common::named_stream_seed(seed, "core.hypergraph.r0"));
std::uint64_t named_stream_seed(std::uint64_t seed, std::string_view label);

}  // namespace cca::common
