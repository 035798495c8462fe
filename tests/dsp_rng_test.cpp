// The in-repo MT19937-64 engine and the distributions computed on it must
// reproduce the std::mt19937_64 streams bit for bit: the raw words,
// fork() children, and uniform()/gaussian()/chance() against the
// libstdc++ distributions they replace — chance() over the probability
// edge cases included.

#include <bit>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <limits>
#include <random>
#include <vector>

#include "dsp/rng.hpp"

namespace {

using datc::dsp::Mt19937_64;
using datc::dsp::Real;
using datc::dsp::Rng;

std::uint64_t bits(Real x) { return std::bit_cast<std::uint64_t>(x); }

constexpr std::uint64_t kSeeds[] = {0, 1, 5489, 20260808,
                                    0xffffffffffffffffull};

TEST(Mt19937_64, StateSizeMatchesStd) {
  EXPECT_EQ(sizeof(Mt19937_64), sizeof(std::mt19937_64));
}

TEST(Mt19937_64, MatchesStd) {
  constexpr std::size_t kDraws = 1'000'000;
  for (const std::uint64_t seed : kSeeds) {
    std::mt19937_64 ref(seed);
    Mt19937_64 eng(seed);
    for (std::size_t i = 0; i < kDraws; ++i) {
      ASSERT_EQ(eng(), ref()) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(Mt19937_64, CopiesContinueIndependently) {
  Mt19937_64 a(77);
  for (int i = 0; i < 500; ++i) (void)a();  // mid-block
  Mt19937_64 b = a;
  std::mt19937_64 ref(77);
  ref.discard(500);
  for (int i = 0; i < 1000; ++i) {
    const auto want = ref();
    ASSERT_EQ(a(), want);
    ASSERT_EQ(b(), want);
  }
}

TEST(Rng, ForkStreamsMatchStd) {
  for (const std::uint64_t seed : kSeeds) {
    std::mt19937_64 ref(seed);
    Rng rng(seed);
    for (int generation = 0; generation < 3; ++generation) {
      std::mt19937_64 ref_child(ref());
      Rng child = rng.fork();
      for (int i = 0; i < 2000; ++i) {
        ASSERT_EQ(bits(child.canonical()),
                  bits(static_cast<Real>(ref_child() >> 11) * 0x1.0p-53))
            << "seed " << seed << " fork " << generation << " draw " << i;
      }
    }
  }
}

TEST(Rng, UniformMatchesStdDistribution) {
  for (const std::uint64_t seed : kSeeds) {
    std::mt19937_64 ref(seed);
    Rng rng(seed);
    for (int i = 0; i < 100000; ++i) {
      ASSERT_EQ(bits(rng.uniform()),
                bits(std::uniform_real_distribution<Real>(0.0, 1.0)(ref)))
          << "seed " << seed << " draw " << i;
      ASSERT_EQ(bits(rng.uniform(-3.5, 0.25)),
                bits(std::uniform_real_distribution<Real>(-3.5, 0.25)(ref)))
          << "seed " << seed << " draw " << i;
    }
  }
}

TEST(Rng, GaussianMatchesStdDistribution) {
  for (const std::uint64_t seed : kSeeds) {
    std::mt19937_64 ref(seed);
    Rng rng(seed);
    for (int i = 0; i < 100000; ++i) {
      ASSERT_EQ(bits(rng.gaussian()),
                bits(std::normal_distribution<Real>(0.0, 1.0)(ref)))
          << "seed " << seed << " draw " << i;
      ASSERT_EQ(bits(rng.gaussian(2.0, 0.3)),
                bits(std::normal_distribution<Real>(2.0, 0.3)(ref)))
          << "seed " << seed << " draw " << i;
    }
  }
}

std::vector<Real> edge_probabilities() {
  return {0.0,
          std::numeric_limits<Real>::denorm_min(),
          1e-6,
          0.5,
          std::nextafter(1.0, 0.0),
          1.0,
          -0.5,
          1.5,
          std::numeric_limits<Real>::quiet_NaN()};
}

/// libstdc++'s bernoulli_distribution draw for any p (the distribution's
/// constructor only asserts its range in debug mode).
bool std_chance(std::mt19937_64& ref, Real p) {
  return std::generate_canonical<Real, std::numeric_limits<Real>::digits>(
             ref) < p;
}

TEST(Rng, ChanceMatchesStdBernoulli) {
  for (const Real p : edge_probabilities()) {
    for (const std::uint64_t seed : kSeeds) {
      std::mt19937_64 ref(seed);
      Rng rng(seed);
      for (int i = 0; i < 20000; ++i) {
        ASSERT_EQ(rng.chance(p), std_chance(ref, p))
            << "p " << p << " seed " << seed << " draw " << i;
      }
      if (p >= 0.0 && p <= 1.0) {
        std::mt19937_64 ref2(seed);
        Rng rng2(seed);
        for (int i = 0; i < 20000; ++i) {
          ASSERT_EQ(rng2.chance(p), std::bernoulli_distribution(p)(ref2))
              << "p " << p << " seed " << seed << " draw " << i;
        }
      }
    }
  }
}

TEST(Rng, CanonicalOfMatchesGenerateCanonical) {
  // Conversion edge words: top bit, rounding ties, the clamp below 1.
  const std::uint64_t words[] = {0,
                                 1,
                                 (1ull << 53) + 1,
                                 (1ull << 63) - 1,
                                 1ull << 63,
                                 (1ull << 63) + 1,
                                 (1ull << 63) + (1ull << 10),
                                 (1ull << 63) + (1ull << 10) + 1,
                                 (1ull << 63) + (3ull << 10),
                                 ~std::uint64_t{0} - (1ull << 10),
                                 ~std::uint64_t{0}};
  for (const std::uint64_t w : words) {
    const Real want = std::min(static_cast<Real>(w) * 0x1.0p-64,
                               std::nextafter(1.0, 0.0));
    EXPECT_EQ(bits(Rng::canonical_of(w)), bits(want)) << "word " << w;
  }
}

}  // namespace
