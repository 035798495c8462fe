#pragma once
// Deterministic random-number helpers. All stochastic components in the
// repository draw from a Rng seeded explicitly, so every experiment is
// reproducible from its seed alone.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>

#include "dsp/types.hpp"

namespace datc::dsp {

/// MT19937-64: the exact sequence, seeding and state size of
/// std::mt19937_64 (asserted against it in tests/dsp_rng_test.cpp), with
/// the 312-word twist done as one out-of-line block refill, so a draw
/// stays one load plus the tempering. Satisfies UniformRandomBitGenerator,
/// so the std distributions run on it unchanged.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kWords = 312;  ///< state size n
  static constexpr std::size_t kShift = 156;  ///< twist offset m
  static constexpr std::uint64_t kMatrix = 0xb5026f5aa96619e9ull;
  static constexpr std::uint64_t kUpper = 0xffffffff80000000ull;  ///< 33 bits
  static constexpr std::uint64_t kLower = 0x000000007fffffffull;  ///< 31 bits

  explicit Mt19937_64(std::uint64_t seed) {
    state_[0] = seed;
    for (std::size_t i = 1; i < kWords; ++i) {
      const std::uint64_t prev = state_[i - 1];
      state_[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
    }
  }

  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (next_ >= kWords) [[unlikely]] refill();
    std::uint64_t y = state_[next_++];
    y ^= (y >> 29) & 0x5555555555555555ull;
    y ^= (y << 17) & 0x71d67fffeda60000ull;
    y ^= (y << 37) & 0xfff7eee000000000ull;
    return y ^ (y >> 43);
  }

 private:
  std::uint64_t state_[kWords];
  std::size_t next_{kWords};

  /// One twist of the whole state, in increasing word order (later words
  /// read the already-twisted early ones), then rewinds the draw index.
  /// Out of line (one call per 312 draws) but not cold: a cold function
  /// is optimised for size, and the compiler then stops vectorising the
  /// twist loops, which doubles the cost of a draw.
  [[gnu::noinline]] void refill() {
    constexpr std::size_t n = kWords;
    constexpr std::size_t m = kShift;
    const auto twist = [](std::uint64_t cur, std::uint64_t next,
                          std::uint64_t far) {
      const std::uint64_t y = (cur & kUpper) | (next & kLower);
      return far ^ (y >> 1) ^ ((std::uint64_t{0} - (y & 1)) & kMatrix);
    };
    for (std::size_t i = 0; i < n - m; ++i) {
      state_[i] = twist(state_[i], state_[i + 1], state_[i + m]);
    }
    for (std::size_t i = n - m; i < n - 1; ++i) {
      state_[i] = twist(state_[i], state_[i + 1], state_[i + m - n]);
    }
    state_[n - 1] = twist(state_[n - 1], state_[0], state_[m - 1]);
    next_ = 0;
  }
};

/// Thin deterministic wrapper around Mt19937_64 with the distributions
/// this project needs. Copyable; copies continue the same stream
/// independently.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform in [0, 1): libstdc++'s std::uniform_real_distribution<double>
  /// (0, 1) mapping, computed directly (see canonical_of()).
  [[nodiscard]] Real uniform() { return canonical64(); }

  /// Uniform in [lo, hi), as std::uniform_real_distribution(lo, hi).
  [[nodiscard]] Real uniform(Real lo, Real hi) {
    return canonical64() * (hi - lo) + lo;
  }

  /// Standard normal: libstdc++'s std::normal_distribution<double>
  /// (Marsaglia polar over canonical64(); a fresh distribution per call,
  /// so the second variate of each pair is discarded), computed directly.
  [[nodiscard]] Real gaussian() { return gaussian(0.0, 1.0); }

  /// Normal with the given mean and standard deviation (same stream).
  /// Out of line: the polar loop inlined into a caller's hot loop costs
  /// that loop more than the call does.
  [[nodiscard]] Real gaussian(Real mean, Real sigma);

  /// Log-uniform in [lo, hi]; lo, hi must be positive.
  [[nodiscard]] Real log_uniform(Real lo, Real hi) {
    require(lo > 0.0 && hi >= lo, "Rng::log_uniform: need 0 < lo <= hi");
    const Real u = uniform(std::log(lo), std::log(hi));
    return std::exp(u);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::uint64_t integer(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }

  /// Bernoulli with probability p: libstdc++'s std::bernoulli_distribution
  /// (one engine draw, `canonical < p`), computed directly. Any p is
  /// accepted; p <= 0 and NaN are never true, p >= 1 always is.
  [[nodiscard]] bool chance(Real p) { return canonical64() < p; }

  /// Uniform in [0, 1) from the top 53 engine bits. Unlike uniform()
  /// (std::uniform_real_distribution, implementation-defined mapping),
  /// this fixed mapping is part of the repository's reproducibility
  /// contract — it is the stream gaussian_bm()/fill_gaussian() consume.
  [[nodiscard]] Real canonical() {
    return static_cast<Real>(engine_() >> 11) * 0x1.0p-53;
  }

  /// Standard normal via the Marsaglia polar method over canonical(),
  /// with the usual one-value spare cache. This is the HOT-PATH gaussian
  /// stream: fill_gaussian() draws the exact same sequence in batches
  /// (SIMD log/sqrt tail), so per-call and batched consumers reproduce
  /// identically from a seed for any chunking. gaussian() (the
  /// std::normal_distribution stream) is unrelated and unchanged.
  [[nodiscard]] Real gaussian_bm();

  /// Batched gaussian_bm(): fills `out` with the next out.size() values
  /// of that stream, vectorising the log/sqrt tail through the active
  /// simd backend (bit-identical across backends).
  void fill_gaussian(std::span<Real> out);

  /// Batched canonical(): the next out.size() values of that stream.
  void fill_uniform(std::span<Real> out);

  /// libstdc++'s std::generate_canonical<double, 53> over one 64-bit
  /// draw: double(x) * 2^-64 (the product is exact), clamped below 1
  /// when the conversion rounds x up to 2^64.
  [[nodiscard]] static Real canonical_of(std::uint64_t x) {
    return std::min(to_double(x) * 0x1.0p-64, 0x1.fffffffffffffp-1);
  }

  /// Derive an independent child stream (e.g. one per dataset pattern).
  [[nodiscard]] Rng fork() { return Rng(engine_()); }

 private:
  Mt19937_64 engine_;
  Real spare_{0.0};       ///< cached second polar variate
  bool has_spare_{false};

  [[nodiscard]] Real canonical64() { return canonical_of(engine_()); }

  /// static_cast<double>(x). Baseline x86-64 has no unsigned conversion
  /// and branches on the top bit (a coin flip for random words), so there
  /// a top-bit word is halved with its low bit kept sticky, converted as
  /// a signed word (the same round-to-nearest-even result) and doubled
  /// back exactly. AVX-512F and other targets convert in one instruction.
  [[nodiscard]] static Real to_double(std::uint64_t x) {
#if defined(__x86_64__) && !defined(__AVX512F__)
    const std::uint64_t top = x >> 63;
    const auto half = static_cast<std::int64_t>((x >> top) | (x & top));
    return static_cast<Real>(half) * static_cast<Real>(top + 1);
#else
    return static_cast<Real>(x);
#endif
  }
};

}  // namespace datc::dsp
