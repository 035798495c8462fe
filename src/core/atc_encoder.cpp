#include "core/atc_encoder.hpp"

#include <cmath>

#include "core/events.hpp"
#include "core/streaming.hpp"
#include "dsp/types.hpp"

namespace datc::core {

AtcResult encode_atc(const dsp::TimeSeries& emg_v,
                     const AtcEncoderConfig& config) {
  AtcResult out;
  StreamingAtcEncoder encoder(
      config, emg_v.sample_rate_hz(),
      [&out](const Event& e) { out.events.add(e.time_s); });
  const auto& x = emg_v.samples();
  if (x.empty()) return out;
  // Crossings are bounded by half the sample count but are far sparser in
  // practice; this keeps typical records to a single allocation.
  out.events.reserve(x.size() / 64 + 8);
  encoder.push_block(x);

  std::size_t above_count = 0;
  for (const Real v : x) {
    if ((config.rectify_input ? std::abs(v) : v) > config.threshold_v) {
      ++above_count;
    }
  }
  out.duty_cycle =
      static_cast<Real>(above_count) / static_cast<Real>(x.size());
  return out;
}

}  // namespace datc::core
