// NEON (AdvSIMD, A64) backend: 2-wide double lanes. Same discipline as
// the AVX2 TU — every step reproduces the scalar reference operation for
// operation (separate mul/add, IEEE div/sqrt, exact int<->double
// conversions), so lane results are bit-identical across backends. On
// non-aarch64 builds this TU only aliases the scalar table.

#include "simd/kernels.hpp"
#include "simd/math.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace datc::simd::detail {

namespace {

/// 2-lane datc_log (simd/math.hpp); normal positive inputs only.
[[nodiscard]] float64x2_t log2lanes(float64x2_t x) {
  const uint64x2_t bits = vreinterpretq_u64_f64(x);
  const int64x2_t e64 = vreinterpretq_s64_u64(
      vsubq_u64(vshrq_n_u64(bits, 52), vdupq_n_u64(1023)));
  float64x2_t dk = vcvtq_f64_s64(e64);
  const uint64x2_t mbits =
      vorrq_u64(vandq_u64(bits, vdupq_n_u64(0x000fffffffffffffull)),
                vdupq_n_u64(0x3ff0000000000000ull));
  float64x2_t m = vreinterpretq_f64_u64(mbits);  // [1, 2)
  const uint64x2_t gt = vcgtq_f64(m, vdupq_n_f64(kSqrt2));
  m = vbslq_f64(gt, vmulq_f64(m, vdupq_n_f64(0.5)), m);
  dk = vaddq_f64(
      dk, vreinterpretq_f64_u64(vandq_u64(
              gt, vreinterpretq_u64_f64(vdupq_n_f64(1.0)))));
  const float64x2_t f = vsubq_f64(m, vdupq_n_f64(1.0));
  const float64x2_t s = vdivq_f64(f, vaddq_f64(vdupq_n_f64(2.0), f));
  const float64x2_t z = vmulq_f64(s, s);
  const float64x2_t w = vmulq_f64(z, z);
  const float64x2_t t1 = vmulq_f64(
      w, vaddq_f64(vdupq_n_f64(kLg2),
                   vmulq_f64(w, vaddq_f64(vdupq_n_f64(kLg4),
                                          vmulq_f64(w, vdupq_n_f64(kLg6))))));
  const float64x2_t t2 = vmulq_f64(
      z, vaddq_f64(
             vdupq_n_f64(kLg1),
             vmulq_f64(
                 w, vaddq_f64(vdupq_n_f64(kLg3),
                              vmulq_f64(w, vaddq_f64(vdupq_n_f64(kLg5),
                                                     vmulq_f64(
                                                         w, vdupq_n_f64(
                                                                kLg7))))))));
  const float64x2_t r = vaddq_f64(t2, t1);
  const float64x2_t hfsq =
      vmulq_f64(vdupq_n_f64(0.5), vmulq_f64(f, f));
  const float64x2_t inner =
      vaddq_f64(vmulq_f64(s, vaddq_f64(hfsq, r)),
                vmulq_f64(dk, vdupq_n_f64(kLn2Lo)));
  return vsubq_f64(vmulq_f64(dk, vdupq_n_f64(kLn2Hi)),
                   vsubq_f64(vsubq_f64(hfsq, inner), f));
}

void cmp_masks_neon(const CmpMaskArgs& args, std::size_t k0, std::size_t n,
                    std::uint64_t* hi_words, std::uint64_t* lo_words) {
  const std::size_t words = (n + 63) / 64;
  for (std::size_t w = 0; w < words; ++w) {
    hi_words[w] = 0;
    lo_words[w] = 0;
  }
  const float64x2_t vclock = vdupq_n_f64(args.clock_hz);
  const float64x2_t vfs = vdupq_n_f64(args.fs);
  const float64x2_t voff = vdupq_n_f64(args.offset_v);
  const float64x2_t vhi = vdupq_n_f64(args.level_hi);
  const float64x2_t vlo = vdupq_n_f64(args.level_lo);
  const float64x2_t two = vdupq_n_f64(2.0);
  const auto kd0 = static_cast<double>(k0);
  float64x2_t kd = {kd0, kd0 + 1.0};
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t t = vdivq_f64(kd, vclock);
    const float64x2_t pos = vmulq_f64(t, vfs);
    const int64x2_t i0 = vcvtq_s64_f64(pos);  // trunc, matches (size_t)
    const float64x2_t fi0 = vcvtq_f64_s64(i0);  // exact
    const float64x2_t frac = vsubq_f64(pos, fi0);
    const Real* p0 = args.base + (vgetq_lane_s64(i0, 0) - args.off);
    const Real* p1 = args.base + (vgetq_lane_s64(i0, 1) - args.off);
    const float64x2_t a = {p0[0], p1[0]};
    const float64x2_t b = {p0[1], p1[1]};
    float64x2_t v = vaddq_f64(a, vmulq_f64(frac, vsubq_f64(b, a)));
    if (args.rectify) v = vabsq_f64(v);
    const float64x2_t vp = vaddq_f64(v, voff);
    const uint64x2_t gh = vcgtq_f64(vp, vhi);
    const uint64x2_t gl = vcgtq_f64(vp, vlo);
    const std::uint64_t mh = (vgetq_lane_u64(gh, 0) & 1u) |
                             ((vgetq_lane_u64(gh, 1) & 1u) << 1);
    const std::uint64_t ml = (vgetq_lane_u64(gl, 0) & 1u) |
                             ((vgetq_lane_u64(gl, 1) & 1u) << 1);
    hi_words[i >> 6] |= mh << (i & 63);  // pairs never straddle words
    lo_words[i >> 6] |= ml << (i & 63);
    kd = vaddq_f64(kd, two);
  }
  for (; i < n; ++i) {
    const CmpBits b = cmp_bits_at(args, k0 + i);
    hi_words[i >> 6] |= static_cast<std::uint64_t>(b.hi) << (i & 63);
    lo_words[i >> 6] |= static_cast<std::uint64_t>(b.lo) << (i & 63);
  }
}

void gauss_tail_neon(const Real* u, const Real* v, const Real* s, Real* z0,
                     Real* z1, std::size_t n) {
  const float64x2_t neg2 = vdupq_n_f64(-2.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t sv = vld1q_f64(s + i);
    const float64x2_t l = log2lanes(sv);
    const float64x2_t t = vsqrtq_f64(vdivq_f64(vmulq_f64(neg2, l), sv));
    vst1q_f64(z0 + i, vmulq_f64(vld1q_f64(u + i), t));
    vst1q_f64(z1 + i, vmulq_f64(vld1q_f64(v + i), t));
  }
  for (; i < n; ++i) {
    gauss_tail_one(u[i], v[i], s[i], z0[i], z1[i]);
  }
}

}  // namespace

const KernelTable& neon_table() {
  static const KernelTable table{Backend::neon, "neon", cmp_masks_neon,
                                 gauss_tail_neon};
  return table;
}

}  // namespace datc::simd::detail

#else  // non-aarch64: keep the symbol, never selected

namespace datc::simd::detail {
const KernelTable& neon_table() { return scalar_table(); }
}  // namespace datc::simd::detail

#endif
