#pragma once
// The TX -> RX link: modulate an event stream, propagate it through the
// channel, decode with the energy-detection receiver. StreamingLink is the
// one implementation of that chain; the batch link functions below run it
// as a single whole-stream chunk, and the streaming sessions
// (runtime/session.hpp) feed it chunk by chunk, so the reference pipeline
// (sim::EndToEnd), the engine (runtime::PipelineRunner) and the sessions
// cannot drift.

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/events.hpp"
#include "dsp/rng.hpp"
#include "uwb/aer.hpp"
#include "uwb/channel.hpp"
#include "uwb/modulator.hpp"
#include "uwb/receiver.hpp"
#include "uwb/streaming_link.hpp"

namespace datc::uwb {

struct LinkConfig {
  ModulatorConfig modulator{};
  ChannelConfig channel{};
  EnergyDetectorConfig detector{};
  std::uint64_t seed{7};
};

/// The two Rng streams of one link, derived from its seed before any
/// draw: the receiver stream is forked off first and the channel keeps
/// the seed engine. The receiver's stream must not depend on how many
/// draws the channel consumes, or no chunked execution could reproduce a
/// whole-stream run.
struct LinkRngs {
  dsp::Rng channel;
  dsp::Rng rx;
};

[[nodiscard]] LinkRngs link_rngs(std::uint64_t seed);

/// The radio chain: StreamingModulator -> StreamingChannel ->
/// StreamingUwbReceiver, with the Rng streams from link_rngs(link.seed)
/// and the receiver tuned to the modulator's frame layout. Any chunking
/// of one event stream decodes exactly what one whole-stream run_chunk
/// decodes.
class StreamingLink {
 public:
  /// Frames carry `code_bits` threshold bits and, when `address_bits` >
  /// 0, an AER address field. `cache_detection` memoises the per-pulse
  /// detection probability (bit-identical output).
  StreamingLink(const LinkConfig& link, unsigned code_bits,
                unsigned address_bits, bool cache_detection);

  /// Sends `events` — the next contiguous slice of the TX stream, in
  /// time order — and appends every event the receiver can finalise to
  /// `out`. `watermark` promises no later event has an earlier time;
  /// `flush` ends the stream and closes every open frame.
  void run_chunk(std::span<const core::Event> events, Real watermark,
                 bool flush, core::EventStream& out);

  /// run_chunk's TX half: modulates `events` and propagates them through
  /// the channel, appending every pulse the channel releases to `rx` (not
  /// cleared). Returns the watermark to decode `rx` under (+inf on
  /// `flush`). The halves touch disjoint state, so one thread may
  /// transmit chunk k+1 while another receives chunk k.
  Real transmit_chunk(std::span<const core::Event> events, Real watermark,
                      bool flush, PulseTrain& rx);

  /// run_chunk's RX half: decodes the pulses transmit_chunk released,
  /// chunks in the order they were transmitted.
  void receive_chunk(const PulseTrain& rx, Real watermark,
                     core::EventStream& out) {
    receiver_.decode_chunk(rx, watermark, out);
  }

  [[nodiscard]] std::size_t pulses_tx() const {
    return modulator_.pulses_emitted();
  }
  [[nodiscard]] std::size_t pulses_erased() const { return channel_.erased(); }
  /// Cumulative receiver statistics.
  [[nodiscard]] const DecodeStats& decode_stats() const {
    return receiver_.stats();
  }
  /// Every future decoded event has time_s >= this bound.
  [[nodiscard]] Real event_time_watermark() const {
    return receiver_.event_time_watermark();
  }
  /// Working-set proxy: held, pending and per-chunk pulse buffers.
  [[nodiscard]] std::size_t buffered_bytes() const;

 private:
  StreamingLink(const LinkConfig& link, unsigned code_bits,
                unsigned address_bits, bool cache_detection, LinkRngs rngs);

  StreamingModulator modulator_;
  StreamingChannel channel_;
  StreamingUwbReceiver receiver_;
  PulseTrain tx_;  ///< this chunk's TX pulses, reused
  PulseTrain rx_;  ///< this chunk's released pulses, reused
};

/// One TX -> RX pass over the UWB link: the whole D-ATC event stream as
/// a single StreamingLink chunk.
struct DatcLinkRun {
  std::size_t pulses_tx{0};
  std::size_t pulses_erased{0};
  core::EventStream events_rx;
  DecodeStats decode{};
};

/// `cache_detection` memoises the per-pulse detection probability
/// (bit-identical output; the engine enables it, the reference path
/// keeps the seed cost model).
[[nodiscard]] DatcLinkRun run_datc_over_link(const core::EventStream& tx,
                                             const LinkConfig& link,
                                             unsigned code_bits,
                                             bool cache_detection = false);

/// Shared-medium AER link: N encoders contend for ONE radio.
struct SharedAerConfig {
  AerConfig aer{};            ///< arbiter parameters (address width, slot)
  /// Arbitration only — bypass modulate/propagate/decode. This is the
  /// ideal-radio reference the noiseless equality tests compare against.
  bool ideal_radio{false};
  bool cache_detection{true};
};

/// One chunk between SharedAerLink's halves: what send_chunk put on the
/// air, for receive_chunk to decode. Reused from chunk to chunk.
struct AerAirChunk {
  PulseTrain pulses;         ///< pulses the channel released (the radio)
  core::EventStream events;  ///< events the arbiter released (ideal_radio)
  Real watermark{0.0};       ///< decode watermark, +inf on flush
  bool flush{false};
};

/// The shared radio's one chunk step — AerArbiter release -> StreamingLink
/// -> aer_route demux — wired once for every chunked caller (the batch
/// runner's shared mode and SharedAerStreamingSession). Any watermark
/// schedule decodes and routes exactly what one whole-stream chunk does.
/// run_chunk is send_chunk then receive_chunk; a caller may run the two
/// halves on different threads, chunk k+1 sending while chunk k is
/// received, as long as each half keeps chunk order.
class SharedAerLink {
 public:
  SharedAerLink(const LinkConfig& link, const SharedAerConfig& shared,
                unsigned code_bits, std::size_t num_channels);

  /// Queues channel `channel`'s next time-ordered events (AerArbiter::push).
  void push(std::size_t channel, std::span<const core::Event> events) {
    arbiter_.push(channel, events);
  }

  /// Releases every queued event below `release_below`, sends it over the
  /// radio (the identity under ideal_radio) and appends each decoded event
  /// with a valid address to `routed[address]`; `flush` ends the stream.
  /// Returns the chunk's decoded stream, every address included, valid
  /// until the next call.
  const core::EventStream& run_chunk(Real release_below, bool flush,
                                     std::span<std::vector<core::Event>> routed);

  /// TX half: arbiter release -> modulate -> channel into `air` (cleared
  /// first). Touches the arbiter, modulator and channel only.
  void send_chunk(Real release_below, bool flush, AerAirChunk& air);

  /// RX half: decodes `air` and routes it as run_chunk does. Touches the
  /// receiver and the demux only. Returns the chunk's decoded stream,
  /// valid until the next call or until `air` is reused.
  const core::EventStream& receive_chunk(
      const AerAirChunk& air, std::span<std::vector<core::Event>> routed);

  /// Every future decoded event has time_s >= this bound (RX side).
  [[nodiscard]] Real event_time_watermark() const;

  // Statistics: arbiter and pulse counts belong to the TX half, demux and
  // decode to the RX half; read each only while that half is idle.
  [[nodiscard]] const AerStats& arbiter_stats() const {
    return arbiter_.stats();
  }
  /// Demux outcomes; in_events counts every decoded event.
  [[nodiscard]] const AerStats& demux_stats() const { return demux_; }
  [[nodiscard]] DecodeStats decode_stats() const {
    return link_ ? link_->decode_stats() : DecodeStats{};
  }
  [[nodiscard]] std::size_t pulses_tx() const {
    return link_ ? link_->pulses_tx() : 0;
  }
  [[nodiscard]] std::size_t pulses_erased() const {
    return link_ ? link_->pulses_erased() : 0;
  }

 private:
  AerArbiter arbiter_;
  std::optional<StreamingLink> link_;  ///< empty under ideal_radio
  AerStats demux_{};
  AerAirChunk air_;  ///< run_chunk's hand-over between the halves
  core::EventStream released_;
  core::EventStream decoded_;
  Real ideal_watermark_{-std::numeric_limits<Real>::infinity()};
};

/// One pass of the arbitrated link: per-channel TX streams -> aer_merge
/// -> modulate (marker + address + code slots) -> channel -> decode ->
/// aer_split; arbiter and radio run as one whole-stream chunk each.
struct SharedAerRun {
  core::EventStream merged_tx;  ///< arbitrated stream offered to the radio
  core::EventStream merged_rx;  ///< decoded stream (== merged_tx when ideal)
  std::vector<core::EventStream> per_channel_rx;
  AerStats arbiter{};           ///< merge-side arbitration stats
  AerStats demux{};             ///< split-side stats (invalid addresses)
  std::size_t pulses_tx{0};
  std::size_t pulses_erased{0};
  DecodeStats decode{};
};

[[nodiscard]] SharedAerRun run_aer_over_link(
    const std::vector<core::EventStream>& tx_channels, const LinkConfig& link,
    const SharedAerConfig& shared, unsigned code_bits);

/// Radio-only variant for an already-arbitrated stream: modulate ->
/// channel -> decode -> demux, leaving `arbiter` stats zeroed (the caller
/// owns the merge). Sweeps whose grid axes touch only the radio hoist the
/// merge out of the loop with this overload.
[[nodiscard]] SharedAerRun run_aer_over_link(const core::EventStream& merged_tx,
                                             unsigned num_channels,
                                             const LinkConfig& link,
                                             const SharedAerConfig& shared,
                                             unsigned code_bits);

}  // namespace datc::uwb
