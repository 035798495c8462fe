#pragma once
// Deterministic transcendental helpers for the vector kernels. libm's
// log() is not specified bit-for-bit across implementations, and the
// vector backends cannot call it per lane anyway — so the polar gaussian
// sampler uses this fixed fdlibm-style natural log whose operation
// sequence is reproduced exactly, lane for lane, by every backend
// (kernels_{scalar,avx2}.cpp). No fma: plain mul/add only, so the
// scalar reference compiles to the same roundings on machines without
// hardware FMA (the build sets -ffp-contract=off globally to keep
// -march=native from contracting these expressions).
//
// Domain: positive normal doubles (subnormals are normalised first;
// 0/inf/NaN are not handled — the one in-repo caller feeds s in
// [2^-104, 1), the polar-method rejection interval). Accuracy ~1-2 ulp,
// ample for gaussian variates.

#include <bit>
#include <cstdint>

#include "dsp/types.hpp"

namespace datc::simd {

using dsp::Real;

// fdlibm log() constants (coefficients of the atanh-form series).
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
inline constexpr double kLg1 = 6.666666666666735130e-01;
inline constexpr double kLg2 = 3.999999999940941908e-01;
inline constexpr double kLg3 = 2.857142874366239149e-01;
inline constexpr double kLg4 = 2.222219843214978396e-01;
inline constexpr double kLg5 = 1.818357216161805012e-01;
inline constexpr double kLg6 = 1.531383769920937332e-01;
inline constexpr double kLg7 = 1.479819860511658591e-01;
/// Mantissa split point: m > sqrt(2) halves into [sqrt2/2, sqrt2].
inline constexpr double kSqrt2 = 1.41421356237309514547;

/// ln(x) with a fixed, backend-reproducible operation sequence.
[[nodiscard]] inline Real datc_log(Real x) {
  auto bits = std::bit_cast<std::uint64_t>(x);
  int k = 0;
  if (bits < (1ull << 52)) {  // subnormal: normalise with an exact scale
    x *= 0x1p54;
    bits = std::bit_cast<std::uint64_t>(x);
    k = -54;
  }
  k += static_cast<int>(bits >> 52) - 1023;
  bits = (bits & 0x000fffffffffffffull) | 0x3ff0000000000000ull;
  Real m = std::bit_cast<Real>(bits);  // [1, 2)
  if (m > kSqrt2) {
    m *= 0.5;
    k += 1;
  }
  const Real f = m - 1.0;
  const Real s = f / (2.0 + f);
  const Real z = s * s;
  const Real w = z * z;
  const Real t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const Real t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const Real r = t2 + t1;
  const Real hfsq = 0.5 * f * f;
  const Real dk = static_cast<Real>(k);
  return dk * kLn2Hi - ((hfsq - (s * (hfsq + r) + dk * kLn2Lo)) - f);
}

}  // namespace datc::simd
