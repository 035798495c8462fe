#pragma once
// Test-only reference for the D-ATC receiver reconstruction: the naive
// whole-record formulation (event rate on the output grid, held threshold
// trajectory, centred moving average, per-sample calibration inverse),
// kept deliberately plain and independent of core/streaming_reconstruct —
// the one production implementation — so parity tests compare two
// different computations. Each expression is in the order the production
// loop reproduces, so the two must agree bit for bit.

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/events.hpp"
#include "core/rate_calibration.hpp"
#include "core/reconstruct.hpp"
#include "dsp/stats.hpp"
#include "dsp/types.hpp"

namespace datc::test_support {

using dsp::Real;

inline constexpr Real kOracleArvOfSigma = 0.7978845608028654;  // sqrt(2/pi)

inline std::size_t oracle_length(Real duration_s, Real fs) {
  return static_cast<std::size_t>(std::llround(duration_s * fs));
}

/// Events in the half-open window [t - w/2, t + w/2) per grid instant,
/// normalised by the window's overlap with [0, duration].
inline std::vector<Real> oracle_event_rate(std::span<const core::Event> ev,
                                           Real duration_s, Real window_s,
                                           Real fs) {
  const std::size_t n = oracle_length(duration_s, fs);
  std::vector<Real> rate(n, 0.0);
  std::size_t lo = 0;
  std::size_t hi = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Real t = static_cast<Real>(i) / fs;
    const Real t_lo = t - window_s / 2.0;
    const Real t_hi = t + window_s / 2.0;
    while (lo < ev.size() && ev[lo].time_s < t_lo) ++lo;
    while (hi < ev.size() && ev[hi].time_s < t_hi) ++hi;
    const Real w_eff = std::min(t_hi, duration_s) - std::max(t_lo, 0.0);
    rate[i] = static_cast<Real>(hi - lo) / std::max(w_eff, 1e-9);
  }
  return rate;
}

/// Held per-sample trajectory of `value(event)`, `initial` before the
/// first event (an event at exactly t_i already applies at i).
template <class Value>
std::vector<Real> oracle_hold(std::span<const core::Event> ev,
                              Real duration_s, Real fs, Real initial,
                              Value&& value) {
  const std::size_t n = oracle_length(duration_s, fs);
  std::vector<Real> out(n);
  std::size_t next = 0;
  Real held = initial;
  for (std::size_t i = 0; i < n; ++i) {
    const Real t = static_cast<Real>(i) / fs;
    while (next < ev.size() && ev[next].time_s <= t) {
      held = value(ev[next]);
      ++next;
    }
    out[i] = held;
  }
  return out;
}

/// y[n] = mean(x[n-h .. n+h]), h = window/2, clamped at the edges, via a
/// running prefix sum.
inline std::vector<Real> oracle_centered_ma(const std::vector<Real>& x,
                                            std::size_t window) {
  std::vector<Real> prefix(x.size() + 1, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) prefix[i + 1] = prefix[i] + x[i];
  const std::size_t h = window / 2;
  std::vector<Real> y(x.size());
  for (std::size_t n = 0; n < x.size(); ++n) {
    const std::size_t lo = n >= h ? n - h : 0;
    const std::size_t hi = std::min(n + h, x.size() - 1);
    y[n] = (prefix[hi + 1] - prefix[lo]) / static_cast<Real>(hi - lo + 1);
  }
  return y;
}

inline std::size_t oracle_window(const core::ReconstructionConfig& rc) {
  return std::max<std::size_t>(
      static_cast<std::size_t>(std::llround(rc.window_s * rc.output_fs_hz)),
      1);
}

/// sigma = window-averaged vth / u_for_rate(rate), per sample.
inline std::vector<Real> oracle_sigma_rate(std::span<const core::Event> ev,
                                           Real duration_s,
                                           const core::ReconstructionConfig& rc,
                                           const core::RateCalibration& cal) {
  const auto rate =
      oracle_event_rate(ev, duration_s, rc.window_s, rc.output_fs_hz);
  const Real lsb = rc.dac_vref / static_cast<Real>(1u << rc.dac_bits);
  const auto vth = oracle_centered_ma(
      oracle_hold(ev, duration_s, rc.output_fs_hz, lsb * 1.0,
                  [lsb](const core::Event& e) {
                    return lsb * static_cast<Real>(e.vth_code);
                  }),
      oracle_window(rc));
  std::vector<Real> sigma(rate.size());
  for (std::size_t i = 0; i < rate.size(); ++i) {
    sigma[i] = vth[i] / cal.u_for_rate(rate[i]);
  }
  return sigma;
}

/// DatcDecodeMode::kRateInversion.
inline std::vector<Real> oracle_rate_inversion(
    std::span<const core::Event> ev, Real duration_s,
    const core::ReconstructionConfig& rc, const core::RateCalibration& cal) {
  auto arv = oracle_sigma_rate(ev, duration_s, rc, cal);
  for (auto& s : arv) s *= kOracleArvOfSigma;
  return arv;
}

/// DatcDecodeMode::kCodeDuty: the Eqn-1/Eqn-2 duty inversion, with the
/// rate inversion as the tail at the code floor.
inline std::vector<Real> oracle_code_duty(std::span<const core::Event> ev,
                                          Real duration_s,
                                          const core::ReconstructionConfig& rc,
                                          const core::RateCalibration& cal) {
  const auto sigma_rate = oracle_sigma_rate(ev, duration_s, rc, cal);
  const unsigned levels = 1u << rc.dac_bits;
  const Real lsb = rc.dac_vref / static_cast<Real>(levels);
  const auto duty_mid = [&rc, levels](unsigned c) {
    const Real step = levels > 1 ? (rc.duty_hi - rc.duty_lo) /
                                       static_cast<Real>(levels - 1)
                                 : 0.0;
    if (c <= rc.min_code) {
      return (rc.duty_lo + step * static_cast<Real>(rc.min_code + 1)) / 2.0;
    }
    return std::min(rc.duty_lo + step * (static_cast<Real>(c) + 0.5),
                    Real{0.95});
  };
  std::array<unsigned, 3> hist{rc.min_code, rc.min_code, rc.min_code};
  const Real wsum = 1.0 + 0.65 + 0.35;
  const Real seed_sigma =
      lsb * static_cast<Real>(rc.min_code) /
      std::max(dsp::normal_q_inv(duty_mid(rc.min_code) / 2.0), Real{1e-6});
  const auto sigma_code = oracle_centered_ma(
      oracle_hold(ev, duration_s, rc.output_fs_hz, seed_sigma,
                  [&](const core::Event& e) {
                    const unsigned c =
                        std::min<unsigned>(e.vth_code, levels - 1);
                    const Real v_eff = lsb *
                                       (1.0 * static_cast<Real>(hist[0]) +
                                        0.65 * static_cast<Real>(hist[1]) +
                                        0.35 * static_cast<Real>(hist[2])) /
                                       wsum;
                    const Real u = dsp::normal_q_inv(duty_mid(c) / 2.0);
                    if (c != hist[0]) {
                      hist[2] = hist[1];
                      hist[1] = hist[0];
                      hist[0] = c;
                    }
                    return v_eff / std::max(u, Real{1e-6});
                  }),
      oracle_window(rc));
  const auto code_sm = oracle_centered_ma(
      oracle_hold(ev, duration_s, rc.output_fs_hz,
                  static_cast<Real>(rc.min_code),
                  [](const core::Event& e) {
                    return static_cast<Real>(e.vth_code);
                  }),
      oracle_window(rc));
  std::vector<Real> arv(sigma_code.size());
  const Real floor_code = static_cast<Real>(rc.min_code) + 0.5;
  for (std::size_t i = 0; i < arv.size(); ++i) {
    Real sigma = sigma_code[i];
    if (code_sm[i] <= floor_code) sigma = std::min(sigma, sigma_rate[i]);
    arv[i] = kOracleArvOfSigma * sigma;
  }
  return arv;
}

/// Index of the first bitwise difference, or -1 when identical (a length
/// mismatch differs at the shorter length).
inline long first_bit_difference(std::span<const Real> a,
                                 std::span<const Real> b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return static_cast<long>(i);
    }
  }
  return a.size() == b.size() ? -1 : static_cast<long>(n);
}

/// First channel whose streamed envelope is not bit-identical to the
/// oracle's rate inversion of that channel's streamed events, or -1
/// (0 when there is nothing to compare).
inline long first_oracle_mismatch(
    const std::vector<core::EventStream>& events,
    const std::vector<std::vector<Real>>& arv, Real duration_s,
    const core::ReconstructionConfig& rc, const core::RateCalibration& cal) {
  if (events.empty() || events.size() != arv.size()) return 0;
  for (std::size_t c = 0; c < events.size(); ++c) {
    const auto want =
        oracle_rate_inversion(events[c].events(), duration_s, rc, cal);
    if (want.empty() || first_bit_difference(want, arv[c]) >= 0) {
      return static_cast<long>(c);
    }
  }
  return -1;
}

/// FNV-1a over the little-endian bytes of each value's IEEE-754 bits.
inline std::uint64_t fnv1a_bits(std::span<const Real> xs,
                                std::uint64_t h = 14695981039346656037ull) {
  for (const Real x : xs) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

}  // namespace datc::test_support
