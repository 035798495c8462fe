#include "uwb/streaming_link.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dsp/types.hpp"
#include "uwb/channel.hpp"
#include "uwb/modulator.hpp"
#include "uwb/pulse.hpp"
#include "uwb/receiver.hpp"

namespace datc::uwb {

namespace {

constexpr Real kNegInf = -std::numeric_limits<Real>::infinity();

/// Gaussian jitter is unbounded; 12 sigma bounds it for every practical
/// purpose (excursion probability ~1e-33 per pulse), and exactly for
/// jitter-free channels. See the StreamingChannel class comment.
constexpr Real kJitterSigmas = 12.0;

}  // namespace

// ------------------------------------------------------------- modulator

namespace {

/// Appends the OOK pulses of one `width`-bit field whose first slot is
/// `first_slot` (slot 0 is the marker).
void emit_field(PulseTrain& train, const ModulatorConfig& config, Real t0,
                std::uint32_t value, unsigned width, unsigned first_slot,
                std::uint32_t id) {
  for (unsigned b = 0; b < width; ++b) {
    const unsigned bit_index = config.msb_first ? width - 1 - b : b;
    if (((value >> bit_index) & 1u) == 0) continue;  // OOK: silence for 0
    const Real t =
        t0 + static_cast<Real>(first_slot + b) * config.symbol_period_s;
    train.add(PulseEmission{t, config.shape.amplitude_v, id,
                            /*is_marker=*/false});
  }
}

}  // namespace

StreamingModulator::StreamingModulator(const ModulatorConfig& config,
                                       unsigned address_bits)
    : config_(config), address_bits_(address_bits) {
  dsp::require(config_.symbol_period_s > 0.0,
               "StreamingModulator: symbol period must be positive");
  dsp::require(config_.code_bits >= 1 && config_.code_bits <= 8,
               "StreamingModulator: code bits must lie in [1,8]");
  dsp::require(address_bits_ <= 16,
               "StreamingModulator: address bits must lie in [0,16]");
}

void StreamingModulator::modulate_chunk(std::span<const core::Event> events,
                                        PulseTrain& train) {
  const std::size_t before = train.size();
  for (const auto& e : events) {
    // With no address field the frame is a plain D-ATC packet; the
    // event's channel tag is simply not transmitted.
    dsp::require(address_bits_ == 0 || address_bits_ == 16 ||
                     e.channel < (std::uint32_t{1} << address_bits_),
                 "StreamingModulator: event address outside the address "
                 "space");
    train.add(PulseEmission{e.time_s, config_.shape.amplitude_v, next_id_,
                            /*is_marker=*/true});
    emit_field(train, config_, e.time_s, e.channel, address_bits_,
               /*first_slot=*/1, next_id_);
    emit_field(train, config_, e.time_s, e.vth_code, config_.code_bits,
               /*first_slot=*/1 + address_bits_, next_id_);
    ++next_id_;
  }
  pulses_ += train.size() - before;
}

// --------------------------------------------------------------- channel

StreamingChannel::StreamingChannel(const ChannelConfig& config, dsp::Rng rng)
    : config_(config),
      rng_(rng),
      gain_(channel_gain(config)),
      jitter_slack_(config.jitter_rms_s * kJitterSigmas),
      release_watermark_(kNegInf) {
  dsp::require(config_.erasure_prob >= 0.0 && config_.erasure_prob <= 1.0,
               "StreamingChannel: erasure probability outside [0,1]");
  dsp::require(std::isfinite(config_.jitter_rms_s) &&
                   config_.jitter_rms_s >= 0.0,
               "StreamingChannel: jitter RMS must be finite and "
               "non-negative");
}

void StreamingChannel::propagate_chunk(const PulseTrain& tx, Real tx_watermark,
                                       PulseTrain& out) {
  const std::size_t n = tx.size();
  buffer_.reserve(buffer_.size() + n);
  if (config_.erasure_prob <= 0.0) {
    // No erasure decisions interleave with the jitter stream, so the whole
    // chunk's Gaussians batch into one fill (Rng::fill_gaussian draws the
    // identical sequence as per-pulse gaussian_bm() calls — the default
    // jittered channel never touches the scalar polar tail).
    if (config_.jitter_rms_s > 0.0 && n > 0) {
      jitter_scratch_.resize(n);
      rng_.fill_gaussian(jitter_scratch_);
    }
    for (std::size_t i = 0; i < n; ++i) {
      PulseEmission rx = tx.pulses()[i];
      rx.amplitude_v = rx.amplitude_v * gain_;
      if (config_.jitter_rms_s > 0.0) {
        rx.time_s += config_.jitter_rms_s * jitter_scratch_[i];
      }
      buffer_.add(rx);
    }
  } else {
    for (const auto& p : tx.pulses()) {
      if (rng_.chance(config_.erasure_prob)) {
        ++erased_;
        continue;
      }
      PulseEmission rx = p;
      rx.amplitude_v = p.amplitude_v * gain_;
      if (config_.jitter_rms_s > 0.0) {
        // datc-lint: allow(hot-rng) — erasure decisions interleave with the
        // jitter stream, so the draws cannot batch without reordering them.
        rx.time_s += config_.jitter_rms_s * rng_.gaussian_bm();
      }
      buffer_.add(rx);
    }
  }
  release_below(tx_watermark - jitter_slack_, out);
}

void StreamingChannel::flush(PulseTrain& out) {
  release_below(std::numeric_limits<Real>::infinity(), out);
}

void StreamingChannel::release_below(Real threshold, PulseTrain& out) {
  if (threshold <= release_watermark_) return;  // watermark is monotone
  release_watermark_ = threshold;
  // The held prefix is already time-sorted and new pulses were appended
  // in TX order, so this stable sort yields exactly the order of one
  // stable sort over the whole received train.
  buffer_.sort_by_time();
  const auto& held = buffer_.pulses();
  const auto first_kept = std::partition_point(
      held.begin(), held.end(),
      [threshold](const PulseEmission& p) { return p.time_s < threshold; });
  buffer_.move_front_to(static_cast<std::size_t>(first_kept - held.begin()),
                        out);
}

// -------------------------------------------------------------- receiver

namespace {

/// Reverses the low 32 bits.
[[nodiscard]] std::uint32_t reverse_bits(std::uint32_t x) {
  x = ((x >> 1) & 0x55555555u) | ((x & 0x55555555u) << 1);
  x = ((x >> 2) & 0x33333333u) | ((x & 0x33333333u) << 2);
  x = ((x >> 4) & 0x0f0f0f0fu) | ((x & 0x0f0f0f0fu) << 4);
  x = ((x >> 8) & 0x00ff00ffu) | ((x & 0x00ff00ffu) << 8);
  return (x >> 16) | (x << 16);
}

/// The `width`-bit field whose first slot is bit `first` of the frame's
/// slot mask; the first slot carries the MSB when `msb_first`.
[[nodiscard]] std::uint32_t slot_field(std::uint32_t slots, unsigned first,
                                       unsigned width, bool msb_first) {
  const std::uint32_t raw = (slots >> first) & ((1u << width) - 1u);
  // The 64-bit shift keeps width == 0 defined (yields 0).
  const auto reversed = static_cast<std::uint32_t>(
      std::uint64_t{reverse_bits(raw)} >> (32u - width));
  return msb_first ? reversed : raw;
}

}  // namespace

StreamingUwbReceiver::StreamingUwbReceiver(const UwbReceiverConfig& config,
                                           const ChannelConfig& channel,
                                           dsp::Rng rng)
    : config_(config),
      channel_(channel),
      // Two independent streams forked from the seed engine: detection
      // draws in pulse order, false-alarm draws in frame order. Each
      // stream's order is chunk-invariant, which is what makes decode
      // results independent of chunk boundaries.
      rng_detect_(rng.fork()),
      rng_frame_(rng.fork()),
      model_(config.detector, channel),
      watermark_(kNegInf) {
  const Real ts = config_.modulator.symbol_period_s;
  dsp::require(std::isfinite(ts) && ts > 0.0,
               "StreamingUwbReceiver: symbol period must be finite and "
               "positive");
  // A tolerance of half a slot or more would let a pulse claim a slot
  // that is not its nearest; NaN would leave every frame open forever.
  dsp::require(config_.slot_tolerance >= 0.0 && config_.slot_tolerance < 0.5,
               "StreamingUwbReceiver: slot tolerance must lie in [0, 0.5)");
  dsp::require(config_.address_bits + config_.modulator.code_bits <= 24,
               "StreamingUwbReceiver: frame exceeds 24 bit slots");
  frame_bits_ = config_.address_bits + config_.modulator.code_bits;
  frame_span_ = static_cast<Real>(frame_bits_) * ts;
  slot_tol_ = config_.slot_tolerance * ts;
  frame_window_ = frame_span_ + slot_tol_;
  PulseShapeConfig unit = config_.modulator.shape;
  unit.amplitude_v = 1.0;
  // Sample the unit pulse finely enough for an accurate energy integral.
  const Real fs = 64.0 / unit.tau_s;
  unit_pulse_energy_ = pulse_energy(unit, fs);
}

void StreamingUwbReceiver::decode_chunk(const PulseTrain& rx, Real watermark,
                                        core::EventStream& out) {
  const auto& pulses = rx.pulses();
  stats_.pulses_in += pulses.size();
  watermark_ = std::max(watermark_, watermark);
  // In a time-sorted chunk no later pulse, in this chunk or (by the
  // watermark) a later one, arrives before the current pulse, so frames
  // close as the scan passes them and pending_ stays a few frames long.
  // An unsorted chunk (a raw train handed to UwbReceiver) closes its
  // frames only at the end, against the watermark alone.
  const bool close_in_scan =
      config_.decode_codes &&
      std::is_sorted(pulses.begin(), pulses.end(),
                     [](const PulseEmission& a, const PulseEmission& b) {
                       return a.time_s < b.time_s;
                     });
  // One pass, in arrival order: energy, Pd, then the sequential draw.
  for (const PulseEmission& p : pulses) {
    const Real energy = unit_pulse_energy_ * p.amplitude_v * p.amplitude_v;
    bool detected;
    if (config_.cache_detection) {
      if (energy != cached_energy_) {
        cached_energy_ = energy;
        cached_pd_ = model_.pd(energy);
      }
      detected = rng_detect_.chance(cached_pd_);
    } else {
      detected = rng_detect_.chance(model_.pd(energy));
    }
    if (!detected) continue;
    ++stats_.pulses_detected;
    if (!config_.decode_codes) {
      out.add(p.time_s, 0);
      continue;
    }
    if (close_in_scan) close_frames(std::min(p.time_s, watermark_), out);
    pending_.push_back(p);
  }
  if (config_.decode_codes) close_frames(watermark_, out);
}

void StreamingUwbReceiver::flush(core::EventStream& out) {
  watermark_ = std::numeric_limits<Real>::infinity();
  close_frames(watermark_, out);
}

void StreamingUwbReceiver::reset_stream() {
  dsp::require(pend_head_ == pending_.size(),
               "StreamingUwbReceiver::reset_stream: open frames pending "
               "(flush first)");
  pending_.clear();
  pend_head_ = 0;
  watermark_ = kNegInf;
}

Real StreamingUwbReceiver::event_time_watermark() const {
  // The next decoded event is either the oldest pending (unclaimed) pulse
  // promoted to a marker, or a pulse not yet received.
  return pend_head_ == pending_.size()
             ? watermark_
             : std::min(pending_[pend_head_].time_s, watermark_);
}

void StreamingUwbReceiver::close_frames(Real closable_before,
                                        core::EventStream& out) {
  // A frame closes only when no future pulse can still land in its
  // window: markers open at the oldest unclaimed pulse, exactly as the
  // batch claimed[] scan resumes at the first unclaimed index.
  while (pend_head_ < pending_.size() &&
         pending_[pend_head_].time_s + frame_window_ < closable_before) {
    close_front_frame(out);
  }
  // Reclaim the dead prefix once it dominates the buffer; amortised O(1)
  // per pulse versus the old erase-per-frame front compaction.
  if (pend_head_ > 1024 && pend_head_ > pending_.size() / 2) {
    pending_.erase(pending_.begin(), pending_.begin() +
                                         static_cast<std::ptrdiff_t>(pend_head_));
    pend_head_ = 0;
  }
}

void StreamingUwbReceiver::close_front_frame(core::EventStream& out) {
  const Real ts = config_.modulator.symbol_period_s;
  const std::size_t head = pend_head_;
  const Real t0 = pending_[head].time_s;  // this frame's marker
  const Real window_end = t0 + frame_span_ + slot_tol_;
  const Real slot_limit = static_cast<Real>(frame_bits_) + 0.5;
  std::uint32_t bit = 0;  // frame_bits_ <= 24, one register
  // Scan the in-window prefix (pending_ is time-sorted); pulses matching
  // a bit slot are claimed, off-slot pulses stay for the next frame.
  std::size_t scan = head + 1;  // head is the marker
  std::size_t keep = head + 1;
  for (; scan < pending_.size() && pending_[scan].time_s <= window_end;
       ++scan) {
    const Real dt = pending_[scan].time_s - t0;
    const Real x = dt / ts;
    // Nearest slot, halves away from zero (std::llround): x lies in
    // [0.5, bits + 0.5) exactly when that slot is in [1, bits], and there
    // x - trunc(x) is exact.
    if (x >= 0.5 && x < slot_limit) {
      auto slot = static_cast<unsigned>(x);
      slot += x - static_cast<Real>(slot) >= 0.5 ? 1u : 0u;
      if (std::abs(dt - static_cast<Real>(slot) * ts) <= slot_tol_) {
        bit |= 1u << (slot - 1);
        continue;
      }
    }
    pending_[keep++] = pending_[scan];
  }
  // Advance the head past the marker and the claimed pulses: the kept
  // unclaimed block [head+1, keep) slides right against the untouched
  // tail at `scan`, so the live window stays contiguous and time-sorted
  // without erasing from the front.
  const std::size_t kept = keep - head - 1;
  if (kept > 0) {
    std::copy_backward(
        pending_.begin() + static_cast<std::ptrdiff_t>(head + 1),
        pending_.begin() + static_cast<std::ptrdiff_t>(keep),
        pending_.begin() + static_cast<std::ptrdiff_t>(scan));
  }
  pend_head_ = scan - kept;

  // False alarms inside empty slots, in slot order (frame-order Rng
  // stream): one draw per empty slot, lowest slot first.
  for (std::uint32_t empty = ~bit & ((1u << frame_bits_) - 1u); empty != 0;
       empty &= empty - 1u) {
    if (rng_frame_.chance(config_.detector.false_alarm_prob)) {
      bit |= empty & (0u - empty);
      ++stats_.false_alarm_bits;
    }
  }
  const unsigned addr_bits = config_.address_bits;
  const unsigned code_bits = config_.modulator.code_bits;
  const bool msb_first = config_.modulator.msb_first;
  const auto address =
      static_cast<std::uint16_t>(slot_field(bit, 0, addr_bits, msb_first));
  const auto code = static_cast<std::uint8_t>(
      slot_field(bit, addr_bits, code_bits, msb_first));
  out.add(t0, code, address);
  ++stats_.packets_decoded;
}

}  // namespace datc::uwb
