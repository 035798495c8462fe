#include "core/datc_encoder.hpp"

#include <cmath>

#include "afe/comparator.hpp"
#include "afe/dac.hpp"
#include "core/dtc.hpp"
#include "core/event_arena.hpp"
#include "core/frame.hpp"
#include "core/streaming.hpp"
#include "dsp/types.hpp"

namespace datc::core {

std::vector<Real> DatcResult::vth_voltage() const {
  std::vector<Real> v(trace.set_vth.size());
  const Real scale =
      dac_vref / static_cast<Real>(1u << dac_bits);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = scale * static_cast<Real>(trace.set_vth[i]);
  }
  return v;
}

DatcResult encode_datc(const dsp::TimeSeries& emg_v,
                       const DatcEncoderConfig& config) {
  dsp::require(std::isfinite(config.clock_hz) && config.clock_hz > 0.0,
               "encode_datc: clock must be finite and positive");
  dsp::require(std::isfinite(emg_v.sample_rate_hz()),
               "encode_datc: analog rate must be finite");
  DatcResult out;
  out.clock_hz = config.clock_hz;
  out.dac_bits = config.dtc.dac_bits;
  out.dac_vref = config.dac_vref;
  if (emg_v.empty()) return out;

  Dtc dtc(config.dtc);
  afe::Dac dac(afe::DacConfig{config.dtc.dac_bits, config.dac_vref});
  afe::Comparator comparator(config.comparator);

  // The record covers the clock instants at or before its last sample:
  // cycle k runs while (k / clock) * fs <= n - 1.
  const Real fs = emg_v.sample_rate_hz();
  const auto last = static_cast<Real>(emg_v.size() - 1);
  const auto estimate = static_cast<std::size_t>(
      std::floor(emg_v.duration_s() * config.clock_hz)) + 1;
  out.trace.d_out.reserve(estimate);
  out.trace.set_vth.reserve(estimate);
  const std::size_t frame_len = frame_cycles(config.dtc.frame);
  out.trace.frame_ones.reserve(estimate / frame_len + 1);
  out.trace.frame_vth.reserve(estimate / frame_len + 1);
  // Generous for realistic duty cycles (events fire well below clock/8).
  out.events.reserve(estimate / 8 + 16);

  std::size_t k = 0;
  for (;; ++k) {
    const Real t = static_cast<Real>(k) / config.clock_hz;
    if (t * fs > last) break;
    Real v = emg_v.at_time(t);
    if (config.rectify_input) v = std::abs(v);
    const unsigned code_in_effect = dtc.set_vth();
    const Real vth = dac.voltage(code_in_effect);
    const bool d_in = comparator.compare(v, vth);
    const DtcStep s = dtc.step(d_in);

    out.trace.d_out.push_back(s.d_out ? 1 : 0);
    out.trace.set_vth.push_back(static_cast<std::uint8_t>(s.set_vth));
    if (s.end_of_frame) {
      out.trace.frame_ones.push_back(dtc.n_one3());
      out.trace.frame_vth.push_back(static_cast<std::uint8_t>(s.set_vth));
    }
    if (s.event) {
      // The transmitted packet carries the threshold level the comparator
      // was using when the event fired; the receiver learns a frame-end
      // update with the next event.
      out.events.add(t, static_cast<std::uint8_t>(code_in_effect));
    }
  }
  out.num_cycles = k;
  return out;
}

std::size_t encode_datc_events(const dsp::TimeSeries& emg_v,
                               const DatcEncoderConfig& config,
                               EventArena& arena) {
  arena.clear();
  StreamingDatcEncoder encoder(config, emg_v.sample_rate_hz(),
                               ArenaSink{&arena});
  if (emg_v.empty()) return 0;
  const auto cycles = static_cast<std::size_t>(
      std::floor(emg_v.duration_s() * config.clock_hz));
  arena.reserve(cycles / 8 + 16);
  encoder.push_block(emg_v.view());
  return arena.size();
}

EventStream encode_datc_events(const dsp::TimeSeries& emg_v,
                               const DatcEncoderConfig& config) {
  EventArena arena;
  encode_datc_events(emg_v, config, arena);
  return arena.take_stream();
}

}  // namespace datc::core
