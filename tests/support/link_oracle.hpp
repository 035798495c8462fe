#pragma once
// Test-only reference for the UWB link's TX side and channel: the naive
// whole-train modulators and channel loop, kept deliberately plain and
// independent of uwb/streaming_link — the one production implementation
// (StreamingModulator, StreamingChannel) — so parity tests compare two
// different computations. Draw order and expression order follow the
// production stages, so the two must agree bit for bit.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/events.hpp"
#include "dsp/rng.hpp"
#include "dsp/types.hpp"
#include "uwb/channel.hpp"
#include "uwb/modulator.hpp"

namespace datc::test_support {

using dsp::Real;

/// Appends the OOK pulses of one `width`-bit field whose first slot is
/// `first_slot` (slot 0 is the marker).
inline void oracle_emit_field(uwb::PulseTrain& train,
                              const uwb::ModulatorConfig& config, Real t0,
                              std::uint32_t value, unsigned width,
                              unsigned first_slot, std::uint32_t id) {
  for (unsigned b = 0; b < width; ++b) {
    const unsigned bit_index = config.msb_first ? width - 1 - b : b;
    if (((value >> bit_index) & 1u) == 0) continue;  // OOK: silence for 0
    const Real t =
        t0 + static_cast<Real>(first_slot + b) * config.symbol_period_s;
    train.add(uwb::PulseEmission{t, config.shape.amplitude_v, id,
                                 /*is_marker=*/false});
  }
}

/// One frame per event: marker, `address_bits` address slots, then the
/// `config.code_bits` code slots. address_bits == 0 is plain D-ATC.
inline uwb::PulseTrain oracle_modulate_aer(const core::EventStream& events,
                                           const uwb::ModulatorConfig& config,
                                           unsigned address_bits) {
  uwb::PulseTrain train;
  std::uint32_t id = 0;
  for (const auto& e : events.events()) {
    train.add(uwb::PulseEmission{e.time_s, config.shape.amplitude_v, id,
                                 /*is_marker=*/true});
    oracle_emit_field(train, config, e.time_s, e.channel, address_bits,
                      /*first_slot=*/1, id);
    oracle_emit_field(train, config, e.time_s, e.vth_code, config.code_bits,
                      /*first_slot=*/1 + address_bits, id);
    ++id;
  }
  return train;
}

inline uwb::PulseTrain oracle_modulate_datc(
    const core::EventStream& events, const uwb::ModulatorConfig& config) {
  return oracle_modulate_aer(events, config, /*address_bits=*/0);
}

/// Gain, erasure and jitter per pulse in TX order, then a stable sort by
/// time. An erasure-free channel makes no erasure draws and takes its
/// jitter as one fill_gaussian (the same stream as per-pulse
/// gaussian_bm calls).
inline uwb::ChannelResult oracle_propagate(const uwb::PulseTrain& tx,
                                           const uwb::ChannelConfig& config,
                                           dsp::Rng& rng) {
  uwb::ChannelResult out;
  const Real gain = uwb::channel_gain(config);
  std::vector<uwb::PulseEmission> rx_pulses;
  if (config.erasure_prob <= 0.0) {
    std::vector<Real> jitter(tx.size(), 0.0);
    if (config.jitter_rms_s > 0.0 && tx.size() > 0) rng.fill_gaussian(jitter);
    for (std::size_t i = 0; i < tx.size(); ++i) {
      uwb::PulseEmission rx = tx.pulses()[i];
      rx.amplitude_v = rx.amplitude_v * gain;
      if (config.jitter_rms_s > 0.0) {
        rx.time_s += config.jitter_rms_s * jitter[i];
      }
      rx_pulses.push_back(rx);
    }
  } else {
    for (const auto& p : tx.pulses()) {
      if (rng.chance(config.erasure_prob)) {
        ++out.erased;
        continue;
      }
      uwb::PulseEmission rx = p;
      rx.amplitude_v = p.amplitude_v * gain;
      if (config.jitter_rms_s > 0.0) {
        rx.time_s += config.jitter_rms_s * rng.gaussian_bm();
      }
      rx_pulses.push_back(rx);
    }
  }
  std::stable_sort(rx_pulses.begin(), rx_pulses.end(),
                   [](const uwb::PulseEmission& a,
                      const uwb::PulseEmission& b) {
                     return a.time_s < b.time_s;
                   });
  for (const auto& p : rx_pulses) out.received.add(p);
  return out;
}

}  // namespace datc::test_support
