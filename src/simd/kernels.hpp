#pragma once
// Vector kernel table: the hot elementwise loops of the encode path and
// the batched gaussian stream, implemented once per backend (scalar
// reference, AVX2) with bit-identical results. Every kernel is a
// pure function over its arguments; the per-backend implementations
// reproduce the scalar operation sequence exactly (no fma contraction,
// same rounding at every step), which is what lets the stream-parity
// harness assert exact equality under DATC_SIMD forcing. Backend
// selection lives in simd/dispatch.hpp.

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "dsp/types.hpp"
#include "simd/math.hpp"

namespace datc::simd {

enum class Backend { scalar, avx2 };

/// Lerp-source geometry for the comparator mask kernel: the analog value
/// at clock instant `pos` (in analog-sample coordinates) is
///   a + frac * (b - a),  a = base[i0 - off], b = base[i0 - off + 1],
///   i0 = trunc(pos), frac = pos - i0,
/// exactly the interpolation the per-cycle encoders inline. The caller
/// guarantees every cycle handed to cmp_masks stays strictly inside the
/// lerp window (no edge clamps) and that pos fits an int32 gather index.
struct CmpMaskArgs {
  const Real* base;
  std::int64_t off;
  Real clock_hz;
  Real fs;
  Real offset_v;
  Real level_hi;
  Real level_lo;
  bool rectify;
};

struct KernelTable {
  Backend backend;
  const char* name;
  /// Comparator decision masks for cycles [k0, k0 + n): bit i of
  /// hi_words[i / 64] is ((v + offset) > level_hi) at cycle k0 + i, and
  /// likewise lo_words for level_lo. Words past bit n-1 are zeroed. The
  /// hysteresis recurrence is resolved by the caller (datc_block.hpp).
  void (*cmp_masks)(const CmpMaskArgs& args, std::size_t k0, std::size_t n,
                    std::uint64_t* hi_words, std::uint64_t* lo_words);
  /// Marsaglia-polar tail: t = sqrt(-2 * datc_log(s[i]) / s[i]);
  /// z0[i] = u[i] * t, z1[i] = v[i] * t.
  void (*gauss_tail)(const Real* u, const Real* v, const Real* s, Real* z0,
                     Real* z1, std::size_t n);
};

namespace detail {

/// One comparator decision pair — the shared scalar reference every
/// backend's remainder loop calls, so tails cannot drift from the main
/// vector body.
struct CmpBits {
  bool hi;
  bool lo;
};

[[nodiscard]] inline CmpBits cmp_bits_at(const CmpMaskArgs& a,
                                         std::size_t k) {
  const Real t_k = static_cast<Real>(k) / a.clock_hz;
  const Real pos = t_k * a.fs;
  const auto i0 = static_cast<std::size_t>(pos);
  const Real frac = pos - static_cast<Real>(i0);
  const Real* p = a.base + (static_cast<std::int64_t>(i0) - a.off);
  Real v = p[0] + frac * (p[1] - p[0]);
  if (a.rectify) v = std::abs(v);
  const Real vp = v + a.offset_v;
  return CmpBits{vp > a.level_hi, vp > a.level_lo};
}

/// Shared polar tail for backend remainder loops.
inline void gauss_tail_one(Real u, Real v, Real s, Real& z0, Real& z1) {
  const Real l = datc_log(s);
  const Real t = std::sqrt(-2.0 * l / s);
  z0 = u * t;
  z1 = v * t;
}

[[nodiscard]] const KernelTable& scalar_table();
/// Defined for every architecture; on non-x86 hosts it aliases the scalar
/// table (dispatch never selects it there — backend_available gates it).
[[nodiscard]] const KernelTable& avx2_table();

}  // namespace detail

}  // namespace datc::simd
