#pragma once
// The UWB link stages — event -> pulse modulation, channel propagation
// and packet decode — in their one, chunked form. Every stage carries its
// state (packet ids, Rng streams, reorder and reassembly buffers) across
// calls, so any chunking of an input produces exactly the output of one
// whole-stream call. There is no second, batch implementation: the batch
// entry points (modulate_datc / modulate_aer, propagate, UwbReceiver) are
// one-chunk adapters over these classes, and uwb::StreamingLink
// (uwb/link_pipeline.hpp) chains the three for every link caller — the
// batch link functions and both streaming sessions alike.
//
// Chunk invariance rests on two disciplines:
//
//  1. Watermarks. Each stage receives, along with its input chunk, a time
//     `watermark` promising that no future input item carries a timestamp
//     below it. Outputs are released only once they are provably final
//     (no future item can sort before them / land in their packet
//     window), so chunk boundaries can never change what is emitted.
//
//  2. Split Rng streams. Every draw comes from a stream whose order is
//     fixed by the data, never by the chunking: the channel draws per TX
//     pulse in packet order, the receiver draws detections in pulse order
//     and false alarms in frame order, each from its own forked stream.

#include <cstdint>
#include <span>
#include <vector>

#include "core/events.hpp"
#include "dsp/rng.hpp"
#include "uwb/channel.hpp"
#include "uwb/modulator.hpp"
#include "uwb/receiver.hpp"

namespace datc::uwb {

/// Chunked event -> pulse modulation: one frame per event — marker, then
/// the optional AER address field, then the Set_Vth code field, each in
/// OOK bit slots. Stateless except for the diagnostic packet-id counter;
/// modulate_datc / modulate_aer are single-chunk calls of this class.
class StreamingModulator {
 public:
  explicit StreamingModulator(const ModulatorConfig& config,
                              unsigned address_bits = 0);

  /// Appends this chunk's pulses to `train` (not cleared). Events must be
  /// the next contiguous slice of the stream, in time order.
  void modulate_chunk(std::span<const core::Event> events, PulseTrain& train);

  [[nodiscard]] std::size_t pulses_emitted() const { return pulses_; }
  [[nodiscard]] const ModulatorConfig& config() const { return config_; }
  [[nodiscard]] unsigned address_bits() const { return address_bits_; }

 private:
  ModulatorConfig config_;
  unsigned address_bits_{0};
  std::uint32_t next_id_{0};
  std::size_t pulses_{0};
};

/// Chunked channel propagation with carried Rng and a reorder buffer.
///
/// Per-pulse randoms (erasure, then jitter) are drawn in TX (packet)
/// order, and received pulses are released in the order a stable sort by
/// time over the whole received train would give, holding back any pulse
/// a future TX pulse could still sort before. Jitter is Gaussian
/// (unbounded), so the hold-back slack is a 12-sigma bound: a larger
/// excursion would make the output depend on the chunking with
/// probability ~1e-33 per pulse — far below anything a test or a seed
/// sweep can encounter, and exactly zero for jitter-free channels.
/// `propagate` is the single-chunk call of this class.
class StreamingChannel {
 public:
  /// Throws unless erasure_prob lies in [0,1] and jitter_rms_s is finite
  /// and non-negative (a negative slack would release pulses a later
  /// chunk sorts before; NaN times break the sort's ordering).
  StreamingChannel(const ChannelConfig& config, dsp::Rng rng);

  /// Propagates the chunk's TX pulses (in packet order, as the modulator
  /// lays them out) and advances the TX-time watermark: the caller
  /// promises every future TX pulse has time_s >= tx_watermark. Received
  /// pulses that are provably final are appended to `out`.
  void propagate_chunk(const PulseTrain& tx, Real tx_watermark,
                       PulseTrain& out);

  /// Releases everything still buffered (end of stream).
  void flush(PulseTrain& out);

  /// Every future released pulse has time_s >= this bound.
  [[nodiscard]] Real release_watermark() const { return release_watermark_; }
  [[nodiscard]] std::size_t erased() const { return erased_; }
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }
  /// The carried stream, advanced past every draw made so far.
  [[nodiscard]] const dsp::Rng& rng() const { return rng_; }

 private:
  ChannelConfig config_;
  dsp::Rng rng_;
  Real gain_;
  Real jitter_slack_;
  /// Received, unreleased pulses. Sorted by time after every release;
  /// new pulses are appended in TX order, so a stable sort by time
  /// reproduces the whole-train order exactly.
  PulseTrain buffer_;
  std::vector<Real> jitter_scratch_;  ///< batched jitter draws, reused
  std::size_t erased_{0};
  Real release_watermark_{0.0};

  void release_below(Real threshold, PulseTrain& out);
};

/// Incremental energy-detection receiver: keeps open-packet reassembly
/// state across decode_chunk() calls, so frames spanning a chunk boundary
/// are reassembled exactly as if the whole train had been decoded at
/// once. Statistics accumulate across calls (see DecodeStats).
class StreamingUwbReceiver {
 public:
  /// Throws unless the symbol period is finite and positive, the slot
  /// tolerance lies in [0, 0.5) and the frame fits 24 bit slots.
  StreamingUwbReceiver(const UwbReceiverConfig& config,
                       const ChannelConfig& channel, dsp::Rng rng);

  /// Decodes the next chunk of received pulses. Pulses must arrive
  /// globally time-sorted across calls (StreamingChannel's output order);
  /// `watermark` promises no future pulse has time_s < watermark.
  /// Completed events are appended to `out` in marker-time order.
  void decode_chunk(const PulseTrain& rx, Real watermark,
                    core::EventStream& out);

  /// Closes every open frame (end of stream) and appends its events.
  void flush(core::EventStream& out);

  /// Cumulative statistics over every chunk decoded so far.
  [[nodiscard]] const DecodeStats& stats() const { return stats_; }

  /// Every future decoded event has time_s >= this bound.
  [[nodiscard]] Real event_time_watermark() const;

  /// Detected pulses awaiting frame closure.
  [[nodiscard]] std::size_t pending() const {
    return pending_.size() - pend_head_;
  }

  /// Forgets stream position (watermark, open frames) for a new
  /// independent train; Rng streams and cumulative stats carry on. The
  /// batch UwbReceiver calls this between decode() calls.
  void reset_stream();

 private:
  UwbReceiverConfig config_;
  ChannelConfig channel_;
  dsp::Rng rng_detect_;  ///< per-pulse detection draws, pulse order
  dsp::Rng rng_frame_;   ///< per-frame false-alarm draws, frame order
  DetectionModel model_;  ///< threshold solve hoisted out of the pulse loop
  DecodeStats stats_;
  Real unit_pulse_energy_;  ///< energy of the shape at 1 V peak
  unsigned frame_bits_{0};  ///< address + code slots after the marker
  Real frame_span_{0.0};    ///< frame_bits_ * Ts
  Real slot_tol_{0.0};      ///< slot tolerance in seconds
  Real frame_window_{0.0};  ///< frame_span_ + slot_tol_
  Real cached_energy_{-1.0};
  Real cached_pd_{0.0};
  /// Detected, unclaimed pulses in time order. The live window is
  /// [pend_head_, size): frame closure advances the head instead of
  /// erasing from the front, and the dead prefix is reclaimed lazily.
  std::vector<PulseEmission> pending_;
  std::size_t pend_head_{0};
  Real watermark_{0.0};

  void close_frames(Real closable_before, core::EventStream& out);
  void close_front_frame(core::EventStream& out);
};

}  // namespace datc::uwb
