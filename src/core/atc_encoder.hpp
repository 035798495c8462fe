#pragma once
// Baseline Average Threshold Crossing encoder (refs [9],[10]): one UWB
// event whenever the rectified, amplified sEMG crosses a *fixed* threshold
// upward. Events fire asynchronously in the analog domain (no clock), so
// crossing instants are interpolated between samples.

#include "core/events.hpp"
#include "dsp/types.hpp"

namespace datc::core {

struct AtcEncoderConfig {
  Real threshold_v{0.3};
  bool rectify_input{true};  ///< threshold |x| (equivalent to +-Vth on x)
  Real hysteresis_v{0.0};    ///< re-arm level = threshold - hysteresis
};

struct AtcResult {
  EventStream events;
  Real duty_cycle{0.0};  ///< fraction of samples above threshold
};

/// Encodes a whole record as one push_block() of a StreamingAtcEncoder
/// (core/streaming.hpp), the one home of the crossing rule. Event
/// timestamps are linearly interpolated between the two samples that
/// straddle the crossing.
[[nodiscard]] AtcResult encode_atc(const dsp::TimeSeries& emg_v,
                                   const AtcEncoderConfig& config);

}  // namespace datc::core
