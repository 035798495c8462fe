#include "dsp/types.hpp"
#include "uwb/channel.hpp"
#include "uwb/modulator.hpp"
#include "uwb/streaming_link.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace datc::uwb {

ChannelConfig noiseless_channel() {
  ChannelConfig ch;
  ch.distance_m = 0.3;
  ch.ref_loss_db = 30.0;
  ch.erasure_prob = 0.0;
  ch.jitter_rms_s = 0.0;
  return ch;
}

Real channel_gain(const ChannelConfig& config) {
  dsp::require(config.distance_m > 0.0 && config.ref_distance_m > 0.0,
               "channel_gain: distances must be positive");
  const Real pl_db =
      config.ref_loss_db +
      10.0 * config.path_loss_exponent *
          std::log10(std::max(config.distance_m / config.ref_distance_m,
                              Real{1.0}));
  return std::pow(10.0, -pl_db / 20.0);
}

Real noise_rms_v(const ChannelConfig& config, Real bw_hz) {
  dsp::require(bw_hz > 0.0, "noise_rms_v: bandwidth must be positive");
  const Real psd_dbm = config.noise_psd_dbm_hz + config.rx_noise_figure_db;
  const Real noise_w = std::pow(10.0, psd_dbm / 10.0) * 1e-3 * bw_hz;
  return std::sqrt(noise_w * 50.0);  // V RMS across 50 ohm
}

ChannelResult propagate(const PulseTrain& tx, const ChannelConfig& config,
                        dsp::Rng& rng) {
  StreamingChannel channel(config, rng);
  ChannelResult out;
  // The whole train is one chunk: an infinite watermark releases every
  // pulse, handing the channel's buffer over without a copy.
  channel.propagate_chunk(tx, std::numeric_limits<Real>::infinity(),
                          out.received);
  out.erased = channel.erased();
  rng = channel.rng();
  return out;
}

}  // namespace datc::uwb
