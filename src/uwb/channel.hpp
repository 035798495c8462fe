#pragma once
// Short-distance indoor UWB channel acting on the symbolic pulse train:
// log-distance path loss, per-pulse erasure (deep fades / blockage — the
// paper's "pulse missing"), timing jitter, and the receiver noise floor
// used by the energy-detector model.

#include "dsp/rng.hpp"
#include "uwb/modulator.hpp"

namespace datc::uwb {

struct ChannelConfig {
  Real distance_m{1.0};
  Real ref_distance_m{0.1};
  Real path_loss_exponent{1.8};   ///< body-area LOS values ~1.5-2
  Real ref_loss_db{40.0};         ///< loss at the reference distance
  Real erasure_prob{0.0};         ///< i.i.d. pulse loss probability
  Real jitter_rms_s{50e-12};      ///< received-time jitter
  Real noise_psd_dbm_hz{-174.0};  ///< thermal floor at the RX input
  Real rx_noise_figure_db{6.0};
};

/// A noiseless short-range configuration: no erasures, no jitter, mild
/// path loss. With a strong pulse and a tiny false-alarm rate the radio
/// becomes exactly transparent — the baseline the shared-AER equality
/// tests and the link sweep's zero-distance sanity point use.
[[nodiscard]] ChannelConfig noiseless_channel();

/// Amplitude attenuation (linear, voltage) over the configured distance.
[[nodiscard]] Real channel_gain(const ChannelConfig& config);

/// Noise RMS (volts) in an energy-detection bandwidth `bw_hz` across 50 ohm.
[[nodiscard]] Real noise_rms_v(const ChannelConfig& config, Real bw_hz);

struct ChannelResult {
  PulseTrain received;
  std::size_t erased{0};
};

/// Propagates a whole pulse train through the channel: one chunk of
/// StreamingChannel (uwb/streaming_link.hpp), the one per-pulse channel
/// model. Draws from `rng` and leaves it advanced past every draw.
[[nodiscard]] ChannelResult propagate(const PulseTrain& tx,
                                      const ChannelConfig& config,
                                      dsp::Rng& rng);

}  // namespace datc::uwb
