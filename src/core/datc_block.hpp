#pragma once
// Fused block-mode D-ATC encode kernel. One template instantiation runs
// comparator + DTC + event emission for a span of clock cycles with every
// hot register (In_reg, the edge detector, the ones counter, the hysteresis
// state) held in locals, the DAC law replaced by a precomputed table, and
// the frame-boundary bookkeeping hoisted out of the per-cycle loop — the
// threshold code is constant between frame boundaries, so each chunk runs
// against a fixed comparison level.
//
// StreamingDatcEncoder is its only caller: whole records and streamed
// chunks both reach it through push_block(). The arithmetic is
// expression-for-expression identical to the per-cycle reference
// (encode_datc), so the emitted events are bit-identical; tests assert
// this. The kernel models the deterministic offset + hysteresis rule only;
// a metastable comparator cannot be built without an Rng, which the
// encoder never supplies.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "afe/comparator.hpp"
#include "core/datc_encoder.hpp"
#include "core/dtc.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"

namespace datc::core::detail {

/// The analog samples the kernel may read: global sample i, for i in
/// [off, last], is base[i - off]. At clock instant pos (analog-sample
/// coordinates) the comparator sees
///   base[i0 - off] + frac * (base[i0 - off + 1] - base[i0 - off]),
/// i0 = trunc(pos), frac = pos - i0, while pos < last, and the newest
/// sample itself when pos == last. Cycles past `last` wait for more input.
struct LerpSource {
  const Real* base;
  std::int64_t off;
  Real last;
};

/// Scalar kernel: runs cycles from k_begin while the clock instant stays
/// <= src.last. `emit(t_k, code)` is called for each transmitted event
/// with the code in effect when it fired. Returns the first cycle index
/// NOT processed.
template <class Emit>
std::size_t run_datc_block_scalar(Dtc& dtc, afe::Comparator& comparator,
                                  const DatcEncoderConfig& config,
                                  std::span<const Real> dac_table,
                                  std::size_t k_begin, Real analog_fs_hz,
                                  const LerpSource& src, Emit&& emit) {
  DtcCursor cur = dtc.block_cursor();
  bool cmp_last = comparator.last_decision();

  const Real clock_hz = config.clock_hz;
  const Real offset_v = config.comparator.offset_v;
  const Real half_hyst = config.comparator.hysteresis_v / 2.0;
  const bool rectify = config.rectify_input;
  const unsigned flen = dtc.frame_len();
  const Real last = src.last;
  const Real newest = src.base[static_cast<std::int64_t>(last) - src.off];

  std::size_t k = k_begin;
  bool past_limit = false;
  while (!past_limit) {
    // Threshold level fixed until the next frame boundary.
    const Real vth = dac_table[cur.set_vth];
    const Real level_hi = vth + half_hyst;  // switching level when last == 0
    const Real level_lo = vth - half_hyst;  // switching level when last == 1
    const auto code = static_cast<std::uint8_t>(cur.set_vth);

    const std::uint32_t chunk = flen - cur.cycle_in_frame;
    bool in_reg = cur.in_reg;
    bool d_out_prev = cur.d_out_prev;
    std::uint32_t counter = cur.counter;
    std::uint32_t done = 0;
    for (; done < chunk; ++done, ++k) {
      const Real t_k = static_cast<Real>(k) / clock_hz;
      const Real pos = t_k * analog_fs_hz;
      if (pos > last) {
        past_limit = true;
        break;
      }
      Real v = newest;  // pos lands exactly on the newest sample
      if (pos < last) {
        const auto i0 = static_cast<std::size_t>(pos);
        const Real* p = src.base + (static_cast<std::int64_t>(i0) - src.off);
        const Real frac = pos - static_cast<Real>(i0);
        v = p[0] + frac * (p[1] - p[0]);
      }
      if (rectify) v = std::abs(v);
      const bool d_in = (v + offset_v) > (cmp_last ? level_lo : level_hi);
      cmp_last = d_in;
      const bool d_out = in_reg;
      if (d_out && !d_out_prev) emit(t_k, code);
      counter += d_out;
      d_out_prev = d_out;
      in_reg = d_in;
    }
    cur.in_reg = in_reg;
    cur.d_out_prev = d_out_prev;
    cur.counter = counter;
    cur.cycle_in_frame += done;
    if (cur.cycle_in_frame >= flen) dtc.finish_frame(cur);
  }

  dtc.restore_cursor(cur);
  comparator.set_last_decision(cmp_last);
  return k;
}

/// run_datc_block_scalar with the comparator inner loop vectorized over
/// [k_begin, kB) — the cycles whose clock instants lie strictly below
/// src.last, where the value is a pure lerp. The cycles landing exactly
/// on the newest sample run through the scalar kernel, so results are
/// bit-identical to run_datc_block_scalar for every input.
///
/// The carried hysteresis state never leaves registers: with A = the
/// "above level_lo" mask word, B = the "above level_hi" mask word and
/// B a subset of A (level_hi >= level_lo), the comparator recurrence
///   d_i = B_i | (A_i & d_{i-1})
/// is exactly the carry chain of A + B — a full adder propagates
/// carry_{i+1} = B_i | (A_i & carry_i) when B implies A — so one 64-bit
/// add resolves 64 cycles of the serial dependency at once.
template <class Emit>
std::size_t run_datc_block(Dtc& dtc, afe::Comparator& comparator,
                           const DatcEncoderConfig& config,
                           std::span<const Real> dac_table,
                           std::size_t k_begin, Real analog_fs_hz,
                           const LerpSource& src, Emit&& emit) {
  const Real clock_hz = config.clock_hz;
  const Real fs = analog_fs_hz;
  const auto pos_of = [clock_hz, fs](std::size_t k) {
    return (static_cast<Real>(k) / clock_hz) * fs;
  };
  // The AVX2 path gathers through int32 indices; clamping the window top
  // keeps every eligible pos (hence i0) in range. Positions beyond 2^31
  // samples simply fall back to the scalar kernel.
  const Real top = std::min(src.last, Real{2147480000.0});
  const auto inside = [&](std::size_t k) { return pos_of(k) < top; };

  // kB: first cycle at/above the top — estimate from the top, then
  // binary-search with the exact predicate (pos_of is non-decreasing).
  std::size_t kB = k_begin;
  {
    const Real est = std::min(top / fs * clock_hz + 4.0, Real{1e18});
    std::size_t lo = k_begin;
    std::size_t hi = k_begin;
    if (est > static_cast<Real>(k_begin)) hi = static_cast<std::size_t>(est);
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (inside(mid)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    kB = lo;
    while (inside(kB)) ++kB;  // estimate slack, O(1)
  }

  if (kB < k_begin + 16) {
    // Too short for the mask kernel to pay off (tiny streaming chunks).
    return run_datc_block_scalar(dtc, comparator, config, dac_table, k_begin,
                                 fs, src, emit);
  }

  // Vector main [k_begin, kB): frame-chunked mask building + carry
  // resolution.
  std::size_t k = k_begin;
  DtcCursor cur = dtc.block_cursor();
  bool cmp_last = comparator.last_decision();
  const Real offset_v = config.comparator.offset_v;
  const Real half_hyst = config.comparator.hysteresis_v / 2.0;
  const unsigned flen = dtc.frame_len();
  const auto& kt = simd::kernels();
  constexpr std::size_t kMaxChunk = 1024;
  std::uint64_t hi_w[kMaxChunk / 64];
  std::uint64_t lo_w[kMaxChunk / 64];
  while (k < kB) {
    const Real vth = dac_table[cur.set_vth];
    const auto code = static_cast<std::uint8_t>(cur.set_vth);
    const simd::CmpMaskArgs args{src.base,         src.off,
                                 clock_hz,         fs,
                                 offset_v,         vth + half_hyst,
                                 vth - half_hyst,  config.rectify_input};
    const std::size_t chunk = std::min(
        {kB - k, static_cast<std::size_t>(flen - cur.cycle_in_frame),
         kMaxChunk});
    kt.cmp_masks(args, k, chunk, hi_w, lo_w);

    bool in_reg = cur.in_reg;
    bool d_out_prev = cur.d_out_prev;
    std::uint32_t counter = cur.counter;
    std::size_t done = 0;
    for (std::size_t w = 0; done < chunk; ++w) {
      const std::size_t m = std::min<std::size_t>(64, chunk - done);
      const std::uint64_t mask =
          m == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << m) - 1);
      const std::uint64_t above_lo = lo_w[w] & mask;
      const std::uint64_t above_hi = hi_w[w] & mask;
      const unsigned __int128 sum =
          static_cast<unsigned __int128>(above_lo) + above_hi +
          (cmp_last ? 1u : 0u);
      const std::uint64_t sum_lo = static_cast<std::uint64_t>(sum);
      // carry-into-bit-i word; d_i = carry into bit i+1
      const std::uint64_t d_in =
          ((above_lo ^ above_hi ^ sum_lo) >> 1) |
          (static_cast<std::uint64_t>(sum >> 64) << 63);
      const std::uint64_t dout =
          ((d_in << 1) | (in_reg ? 1u : 0u)) & mask;
      counter += static_cast<std::uint32_t>(std::popcount(dout));
      const std::uint64_t prev = (dout << 1) | (d_out_prev ? 1u : 0u);
      std::uint64_t rise = dout & ~prev;
      while (rise != 0) {
        const auto b = static_cast<unsigned>(std::countr_zero(rise));
        rise &= rise - 1;
        const std::size_t kk = k + done + b;
        emit(static_cast<Real>(kk) / clock_hz, code);
      }
      cmp_last = ((d_in >> (m - 1)) & 1u) != 0;
      in_reg = cmp_last;
      d_out_prev = ((dout >> (m - 1)) & 1u) != 0;
      done += m;
    }
    cur.in_reg = in_reg;
    cur.d_out_prev = d_out_prev;
    cur.counter = counter;
    cur.cycle_in_frame += static_cast<unsigned>(chunk);
    k += chunk;
    if (cur.cycle_in_frame >= flen) dtc.finish_frame(cur);
  }
  dtc.restore_cursor(cur);
  comparator.set_last_decision(cmp_last);

  // Scalar suffix from kB — the newest-sample landing.
  return run_datc_block_scalar(dtc, comparator, config, dac_table, k, fs, src,
                               emit);
}

}  // namespace datc::core::detail
