#include "dsp/sort.hpp"
#include "dsp/types.hpp"
#include "uwb/modulator.hpp"
#include "uwb/pulse.hpp"
#include "uwb/streaming_link.hpp"

#include <algorithm>
#include <cmath>

namespace datc::uwb {

void PulseTrain::sort_by_time() {
  // Channel jitter only swaps near neighbours (in AER trains a frame's
  // last slot and the next marker share a nominal instant), so the
  // near-sorted pass costs O(n + inversions).
  dsp::stable_sort_near_sorted(
      pulses_, [](const PulseEmission& a, const PulseEmission& b) {
        return a.time_s < b.time_s;
      });
}

void PulseTrain::move_front_to(std::size_t n, PulseTrain& out) {
  if (n == pulses_.size() && out.empty()) {
    pulses_.swap(out.pulses_);
    return;
  }
  const auto end = pulses_.begin() + static_cast<std::ptrdiff_t>(n);
  out.pulses_.insert(out.pulses_.end(), pulses_.begin(), end);
  pulses_.erase(pulses_.begin(), end);
}

dsp::TimeSeries PulseTrain::render(const PulseShapeConfig& shape, Real t0,
                                   Real t1, Real fs_hz,
                                   std::size_t max_samples) const {
  dsp::require(t1 > t0 && fs_hz > 0.0, "PulseTrain::render: bad window");
  const Real n_req = (t1 - t0) * fs_hz;
  dsp::require(n_req <= static_cast<Real>(max_samples),
               "PulseTrain::render: window too large to render");
  const auto n = static_cast<std::size_t>(std::llround(n_req));
  std::vector<Real> out(n, 0.0);
  const Real support = 6.0 * shape.tau_s;
  for (const auto& p : pulses_) {
    if (p.time_s + support < t0 || p.time_s - support > t1) continue;
    const auto i_lo = static_cast<std::ptrdiff_t>(
        std::floor((p.time_s - support - t0) * fs_hz));
    const auto i_hi = static_cast<std::ptrdiff_t>(
        std::ceil((p.time_s + support - t0) * fs_hz));
    for (std::ptrdiff_t i = std::max<std::ptrdiff_t>(i_lo, 0);
         i <= i_hi && i < static_cast<std::ptrdiff_t>(n); ++i) {
      const Real t = t0 + static_cast<Real>(i) / fs_hz;
      PulseShapeConfig unit = shape;
      unit.amplitude_v = 1.0;
      out[static_cast<std::size_t>(i)] +=
          p.amplitude_v * pulse_value(unit, t - p.time_s);
    }
  }
  return dsp::TimeSeries(std::move(out), fs_hz);
}

PulseTrain modulate_atc(const core::EventStream& events,
                        const ModulatorConfig& config) {
  PulseTrain train;
  train.reserve(events.size());
  std::uint32_t id = 0;
  for (const auto& e : events.events()) {
    train.add(PulseEmission{e.time_s, config.shape.amplitude_v, id++,
                            /*is_marker=*/true});
  }
  return train;
}

PulseTrain modulate_datc(const core::EventStream& events,
                         const ModulatorConfig& config) {
  return modulate_aer(events, config, /*address_bits=*/0);
}

PulseTrain modulate_aer(const core::EventStream& events,
                        const ModulatorConfig& config,
                        unsigned address_bits) {
  StreamingModulator modulator(config, address_bits);
  PulseTrain train;
  // Worst case: every slot of every frame carries a pulse.
  train.reserve(events.size() * (1 + address_bits + config.code_bits));
  modulator.modulate_chunk(events.events(), train);
  return train;
}

Real packet_duration_s(const ModulatorConfig& config) {
  return static_cast<Real>(config.code_bits + 1) * config.symbol_period_s;
}

Real aer_frame_duration_s(const ModulatorConfig& config,
                          unsigned address_bits) {
  return static_cast<Real>(1 + address_bits + config.code_bits) *
         config.symbol_period_s;
}

}  // namespace datc::uwb
