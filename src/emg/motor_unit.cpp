#include "dsp/types.hpp"
#include "emg/force_profile.hpp"
#include "emg/motor_unit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

namespace datc::emg {
namespace {

/// Normalised biphasic MUAP shape: h(x) = x * exp(-x^2 / 2), peak ~ 0.607.
Real muap_shape(Real x) { return x * std::exp(-x * x / 2.0); }

/// Peak of |muap_shape| (at x = 1).
const Real kShapePeak = std::exp(-0.5);

}  // namespace

MotorUnitPool::MotorUnitPool(const MotorUnitPoolConfig& config, dsp::Rng rng)
    : config_(config), rng_(rng) {
  dsp::require(config_.num_units >= 1, "MotorUnitPool: need >= 1 unit");
  dsp::require(config_.recruitment_range > 1.0 &&
                   config_.amplitude_range >= 1.0,
               "MotorUnitPool: ranges must exceed 1");
  dsp::require(config_.peak_rate_hz >= config_.min_rate_hz &&
                   config_.min_rate_hz > 0.0,
               "MotorUnitPool: rates must satisfy 0 < min <= peak");

  const auto n = config_.num_units;
  units_.resize(n);
  // All units are recruited by 70 % excitation (upper recruitment limit for
  // hand muscles); recruitment thresholds and amplitudes follow the
  // exponential size-principle distributions of Fuglevand et al.
  constexpr Real kMaxRecruitExcitation = 0.7;
  for (std::size_t i = 0; i < n; ++i) {
    const Real frac =
        n == 1 ? 0.0
               : static_cast<Real>(i) / static_cast<Real>(n - 1);
    units_[i].recruitment_threshold =
        kMaxRecruitExcitation *
        std::exp(std::log(config_.recruitment_range) * (frac - 1.0));
    units_[i].amplitude =
        std::exp(std::log(config_.amplitude_range) * frac);
    units_[i].sigma_s =
        config_.muap_sigma_s *
        (1.0 + (config_.muap_sigma_spread - 1.0) * frac);
  }

  // Campbell's theorem calibration: for a shot-noise superposition the
  // variance is sum_i rate_i * integral h_i(t)^2 dt. With h peak-normalised
  // to amplitude a and time constant sigma, integral h^2 = a^2 sigma
  // sqrt(pi)/2 / kShapePeak^2. A dense interference pattern is ~Gaussian,
  // so ARV = sigma_signal * sqrt(2/pi).
  Real var_full = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Real rate = firing_rate(i, 1.0);
    const Real h2 = units_[i].amplitude * units_[i].amplitude *
                    units_[i].sigma_s * (std::sqrt(std::numbers::pi_v<Real>) / 2.0) /
                    (kShapePeak * kShapePeak);
    var_full += rate * h2;
  }
  const Real arv_full =
      std::sqrt(var_full) * std::sqrt(2.0 / std::numbers::pi_v<Real>);
  dsp::require(arv_full > 0.0, "MotorUnitPool: degenerate calibration");
  arv_norm_ = 1.0 / arv_full;
}

Real MotorUnitPool::firing_rate(std::size_t u, Real e) const {
  dsp::require(u < units_.size(), "firing_rate: unit index out of range");
  const auto& mu = units_[u];
  if (e < mu.recruitment_threshold) return 0.0;
  const Real r = config_.min_rate_hz +
                 config_.rate_gain_hz * (e - mu.recruitment_threshold);
  return std::min(r, config_.peak_rate_hz);
}

std::vector<Real> MotorUnitPool::muap_waveform(const MotorUnit& mu,
                                               Real fs_hz) const {
  // Support of +-4 sigma around the centre.
  const auto half = static_cast<std::size_t>(
      std::ceil(4.0 * mu.sigma_s * fs_hz));
  const std::size_t len = 2 * half + 1;
  std::vector<Real> w(len);
  for (std::size_t i = 0; i < len; ++i) {
    const Real t = (static_cast<Real>(i) - static_cast<Real>(half)) / fs_hz;
    w[i] = mu.amplitude * muap_shape(t / mu.sigma_s) / kShapePeak;
  }
  return w;
}

dsp::TimeSeries MotorUnitPool::synthesize(const ForceProfile& drive) {
  const Real fs = drive.sample_rate_hz;
  dsp::require(fs > 0.0, "synthesize: sample rate must be positive");
  const std::size_t n = drive.fraction_mvc.size();
  std::vector<Real> out(n, 0.0);
  if (n == 0) return dsp::TimeSeries(std::move(out), fs);

  // Precompute MUAP kernels.
  std::vector<std::vector<Real>> kernels;
  kernels.reserve(units_.size());
  for (const auto& mu : units_) kernels.push_back(muap_waveform(mu, fs));

  // Per-unit firing state: time of next spike (in samples); negative means
  // currently de-recruited.
  constexpr Real kInactive = -1.0;
  std::vector<Real> next_spike(units_.size(), kInactive);

  const Real min_isi_frac = 0.3;  // refractory floor as a fraction of 1/rate
  for (std::size_t s = 0; s < n; ++s) {
    const Real e = std::clamp(drive.fraction_mvc[s], 0.0, 1.0);
    for (std::size_t u = 0; u < units_.size(); ++u) {
      const Real rate = firing_rate(u, e);
      if (rate <= 0.0) {
        next_spike[u] = kInactive;
        continue;
      }
      // An active unit with its next spike still ahead has nothing to do
      // this sample; skipping it spares the per-unit division.
      if (next_spike[u] > static_cast<Real>(s)) continue;
      const Real mean_isi_samples = fs / rate;
      if (next_spike[u] < 0.0) {
        // Newly recruited: random phase within one ISI.
        next_spike[u] = static_cast<Real>(s) +
                        rng_.uniform() * mean_isi_samples;
      }
      while (next_spike[u] <= static_cast<Real>(s)) {
        // Stamp this unit's MUAP centred at the spike sample.
        const auto& k = kernels[u];
        const auto half = (k.size() - 1) / 2;
        const auto centre = static_cast<std::ptrdiff_t>(
            std::llround(next_spike[u]));
        for (std::size_t j = 0; j < k.size(); ++j) {
          const std::ptrdiff_t idx =
              centre + static_cast<std::ptrdiff_t>(j) -
              static_cast<std::ptrdiff_t>(half);
          if (idx >= 0 && idx < static_cast<std::ptrdiff_t>(n)) {
            out[static_cast<std::size_t>(idx)] += k[j];
          }
        }
        const Real isi =
            mean_isi_samples *
            std::max(min_isi_frac,
                     1.0 + config_.isi_cv * rng_.gaussian());
        next_spike[u] += isi;
      }
    }
  }

  // Normalise so ARV at sustained 100 % MVC ~ 1, then add measurement noise.
  for (auto& v : out) v *= arv_norm_;
  if (config_.noise_rms > 0.0) {
    for (auto& v : out) v += config_.noise_rms * rng_.gaussian();
  }
  return dsp::TimeSeries(std::move(out), fs);
}

}  // namespace datc::emg
