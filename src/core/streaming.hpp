#pragma once
// Real-time streaming front ends, and the only encoder implementations:
// they accept analog samples — one at a time or in blocks — and emit
// events through a sink. The whole-record encoders (encode_datc_events,
// encode_atc) are one push_block() over the record; encode_datc stays as
// the independent per-cycle reference with its DatcTrace.
//
// The sink is a template parameter deduced at the call site, so a concrete
// callable (an ArenaSink, a lambda, a ring-buffer writer) inlines straight
// into the encode loop with no type-erased dispatch on the event hot path.
//
// The D-ATC streamer handles the analog-rate / DTC-clock boundary
// internally: analog samples arrive at `analog_fs_hz` while the DTC is
// clocked at `clock_hz`, with linear interpolation at each clock instant
// (the behaviour of the asynchronous comparator sampled by In_reg). A
// clock instant runs once the sample at or after it has arrived, so a
// record covers the instants at or before its last sample.
// push_block() runs the fused block kernel (datc_block.hpp): frame-chunked
// execution against a precomputed DAC table.

#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "afe/comparator.hpp"
#include "afe/dac.hpp"
#include "core/atc_encoder.hpp"
#include "core/datc_block.hpp"
#include "core/datc_encoder.hpp"
#include "core/dtc.hpp"
#include "core/events.hpp"
#include "dsp/types.hpp"

namespace datc::core {

/// Streaming D-ATC transmitter, parameterised on the event sink.
/// `channel` is the AER address stamped on every emitted event (0 for
/// single-channel links) — multi-channel sessions give each encoder its
/// electrode id so the arbiter and the demux can route its events.
template <class Sink>
class StreamingDatcEncoder {
 public:
  StreamingDatcEncoder(const DatcEncoderConfig& config, Real analog_fs_hz,
                       Sink sink, std::uint16_t channel = 0)
      : config_(config),
        analog_fs_hz_(analog_fs_hz),
        channel_(channel),
        sink_(std::move(sink)),
        dtc_(config.dtc),
        dac_(afe::DacConfig{config.dtc.dac_bits, config.dac_vref}),
        dac_table_(dac_.voltage_table()),
        comparator_(config.comparator) {
    dsp::require(std::isfinite(analog_fs_hz_) && analog_fs_hz_ > 0.0,
                 "StreamingDatcEncoder: analog rate must be finite and "
                 "positive");
    dsp::require(std::isfinite(config_.clock_hz) && config_.clock_hz > 0.0,
                 "StreamingDatcEncoder: clock must be finite and positive");
  }

  /// Push one analog sample (volts). May fire zero or more events.
  void push(Real sample_v) { push_block(std::span<const Real>(&sample_v, 1)); }

  /// Process a block of samples through the fused kernel: one chunk per DTC
  /// frame with the threshold level and all hot registers in locals. Any
  /// split of a record into blocks emits the same events.
  void push_block(std::span<const Real> samples_v) {
    if (samples_v.empty()) return;
    const std::size_t s0 = samples_seen_;  // global index of samples_v[0]
    const std::size_t bn = samples_v.size();
    const auto last = static_cast<Real>(s0 + bn - 1);
    if (s0 == 0) {
      // Bootstrap: the pos == 0 cycle sees sample 0 itself. After it the
      // caller's span is already the contiguous lerp source (off = 0), so
      // a whole record is encoded in place.
      run({samples_v.data(), 0, 0.0});
      run({samples_v.data(), 0, last});
    } else {
      // Later chunks: [prev, chunk] in reused scratch, off = s0 - 1.
      lerp_scratch_.clear();
      lerp_scratch_.reserve(bn + 1);
      lerp_scratch_.push_back(prev_sample_);
      lerp_scratch_.insert(lerp_scratch_.end(), samples_v.begin(),
                           samples_v.end());
      run({lerp_scratch_.data(), static_cast<std::int64_t>(s0) - 1, last});
    }
    samples_seen_ = s0 + bn;
    prev_sample_ = samples_v.back();
  }

  /// Total clock cycles executed so far.
  [[nodiscard]] std::size_t cycles() const { return cycles_; }
  /// Events emitted so far.
  [[nodiscard]] std::size_t events_emitted() const { return events_; }
  /// Current DAC code (diagnostics).
  [[nodiscard]] unsigned set_vth() const { return dtc_.set_vth(); }
  /// AER address stamped on emitted events.
  [[nodiscard]] std::uint16_t channel() const { return channel_; }
  /// Event-time watermark: every event not yet emitted will carry a
  /// timestamp >= this bound (the next unexecuted clock instant). Session
  /// layers use it to close downstream windows with bounded latency.
  [[nodiscard]] Real event_time_watermark() const {
    return static_cast<Real>(cycles_) / config_.clock_hz;
  }

  [[nodiscard]] Sink& sink() { return sink_; }

  /// Reset to power-on state (keeps the sink).
  void reset() {
    dtc_.reset();
    comparator_.reset();
    samples_seen_ = 0;
    cycles_ = 0;
    events_ = 0;
    prev_sample_ = 0.0;
  }

 private:
  DatcEncoderConfig config_;
  Real analog_fs_hz_;
  std::uint16_t channel_{0};
  Sink sink_;
  Dtc dtc_;
  afe::Dac dac_;
  std::vector<Real> dac_table_;
  afe::Comparator comparator_;
  std::size_t samples_seen_{0};
  std::size_t cycles_{0};
  std::size_t events_{0};
  Real prev_sample_{0.0};
  std::vector<Real> lerp_scratch_;  ///< [prev, chunk], reused capacity

  void run(const detail::LerpSource& src) {
    cycles_ = detail::run_datc_block(
        dtc_, comparator_, config_, dac_table_, cycles_, analog_fs_hz_, src,
        [this](Real t, std::uint8_t code) {
          ++events_;
          sink_(Event{t, code, channel_});
        });
  }
};

/// Streaming fixed-threshold ATC transmitter (asynchronous crossings with
/// interpolated timestamps, like the batch encoder), parameterised on the
/// event sink.
template <class Sink>
class StreamingAtcEncoder {
 public:
  StreamingAtcEncoder(const AtcEncoderConfig& config, Real analog_fs_hz,
                      Sink sink, std::uint16_t channel = 0)
      : config_(config),
        analog_fs_hz_(analog_fs_hz),
        channel_(channel),
        sink_(std::move(sink)) {
    dsp::require(config_.threshold_v > 0.0,
                 "StreamingAtcEncoder: threshold must be positive");
    dsp::require(config_.hysteresis_v >= 0.0 &&
                     config_.hysteresis_v < config_.threshold_v,
                 "StreamingAtcEncoder: hysteresis must lie in [0, threshold)");
    dsp::require(analog_fs_hz_ > 0.0,
                 "StreamingAtcEncoder: analog rate must be positive");
  }

  void push(Real sample_v) {
    const Real cur = config_.rectify_input ? std::abs(sample_v) : sample_v;
    const Real arm_level = config_.threshold_v - config_.hysteresis_v;
    if (first_) {
      first_ = false;
      prev_ = cur;
      armed_ = !(cur > config_.threshold_v);
      ++samples_seen_;
      return;
    }
    if (armed_ && prev_ <= config_.threshold_v && cur > config_.threshold_v) {
      const Real frac = (config_.threshold_v - prev_) / (cur - prev_);
      const Real t =
          (static_cast<Real>(samples_seen_ - 1) + frac) / analog_fs_hz_;
      ++events_;
      sink_(Event{t, 0, channel_});
      armed_ = false;
    }
    if (!armed_ && cur < arm_level) armed_ = true;
    prev_ = cur;
    ++samples_seen_;
  }

  void push_block(std::span<const Real> samples_v) {
    // One compare per sample: with the sink inlined this loop is already
    // the branch-light form; no chunked variant needed.
    for (const Real v : samples_v) push(v);
  }

  [[nodiscard]] std::size_t events_emitted() const { return events_; }
  /// AER address stamped on emitted events.
  [[nodiscard]] std::uint16_t channel() const { return channel_; }
  /// Event-time watermark: future events interpolate between samples not
  /// yet seen, so they land at or after the newest sample's instant.
  [[nodiscard]] Real event_time_watermark() const {
    return samples_seen_ == 0
               ? 0.0
               : static_cast<Real>(samples_seen_ - 1) / analog_fs_hz_;
  }
  [[nodiscard]] Sink& sink() { return sink_; }

  void reset() {
    samples_seen_ = 0;
    events_ = 0;
    prev_ = 0.0;
    armed_ = true;
    first_ = true;
  }

 private:
  AtcEncoderConfig config_;
  Real analog_fs_hz_;
  std::uint16_t channel_{0};
  Sink sink_;
  std::size_t samples_seen_{0};
  std::size_t events_{0};
  Real prev_{0.0};
  bool armed_{true};
  bool first_{true};
};

}  // namespace datc::core
