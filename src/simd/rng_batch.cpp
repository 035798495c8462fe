// Out-of-line definitions of the Rng gaussian streams (declared in
// dsp/rng.hpp). They live in simd/ because the batched tail runs through
// the kernel table — dsp/ stays leaf (no dsp -> simd include edge), and
// the per-call path shares the identical scalar datc_log so per-call and
// batched draws produce one sequence.
//
// Sequence contract (asserted by tests/simd_dispatch_test.cpp):
//   * engine consumption: two canonical() draws per polar trial,
//     rejection loop `!(0 < s < 1)`, identical per-call and batched;
//   * emission order: u*t then v*t per accepted pair, the second value
//     cached as the spare across call boundaries — so
//     fill_gaussian(n1) + fill_gaussian(n2) == fill_gaussian(n1 + n2)
//     == n1 + n2 calls of gaussian_bm(), bit for bit.

#include <cmath>
#include <cstddef>

#include "dsp/rng.hpp"
#include "simd/dispatch.hpp"
#include "simd/math.hpp"

namespace datc::dsp {

Real Rng::gaussian(Real mean, Real sigma) {
  Real x;
  Real y;
  Real r2;
  do {
    x = 2.0 * canonical64() - 1.0;
    y = 2.0 * canonical64() - 1.0;
    r2 = x * x + y * y;
  } while (!(r2 > 0.0 && r2 <= 1.0));  // libstdc++: r2 > 1 || r2 == 0
  const Real mult = std::sqrt(-2.0 * std::log(r2) / r2);
  return y * mult * sigma + mean;
}

Real Rng::gaussian_bm() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  Real u;
  Real v;
  Real s;
  do {
    u = 2.0 * canonical() - 1.0;
    v = 2.0 * canonical() - 1.0;
    s = u * u + v * v;
  } while (!(s > 0.0 && s < 1.0));
  const Real l = simd::datc_log(s);
  const Real t = std::sqrt(-2.0 * l / s);
  spare_ = v * t;
  has_spare_ = true;
  return u * t;
}

void Rng::fill_gaussian(std::span<Real> out) {
  const std::size_t n = out.size();
  std::size_t i = 0;
  if (i < n && has_spare_) {
    out[i++] = spare_;
    has_spare_ = false;
  }
  constexpr std::size_t kBlock = 128;
  Real u[kBlock];
  Real v[kBlock];
  Real s[kBlock];
  Real z0[kBlock];
  Real z1[kBlock];
  const auto& kt = simd::kernels();
  while (i < n) {
    const std::size_t pairs = std::min((n - i + 1) / 2, kBlock);
    // Engine draws and rejection stay scalar-sequential (the accept/reject
    // control flow is inherently serial); the transcendental tail below is
    // the vector pass.
    for (std::size_t j = 0; j < pairs; ++j) {
      Real a;
      Real b;
      Real q;
      do {
        a = 2.0 * canonical() - 1.0;
        b = 2.0 * canonical() - 1.0;
        q = a * a + b * b;
      } while (!(q > 0.0 && q < 1.0));
      u[j] = a;
      v[j] = b;
      s[j] = q;
    }
    kt.gauss_tail(u, v, s, z0, z1, pairs);
    for (std::size_t j = 0; j < pairs; ++j) {
      out[i++] = z0[j];
      if (i < n) {
        out[i++] = z1[j];
      } else {
        spare_ = z1[j];
        has_spare_ = true;
      }
    }
  }
}

void Rng::fill_uniform(std::span<Real> out) {
  for (Real& x : out) x = canonical();
}

}  // namespace datc::dsp
