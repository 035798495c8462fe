#pragma once
// Address-Event Representation framing (refs [9],[12]): multiple sEMG
// channels share one IR-UWB link by prepending an address to each event.
// One arbiter (AerArbiter; aer_merge is one whole-stream chunk of it)
// enforces a minimum packet spacing on air; colliding events are delayed
// (queued) or dropped beyond a configurable latency budget — the
// trade-off the multi-channel glove system of ref. [12] navigates.

#include <cstdint>
#include <span>
#include <vector>

#include "core/events.hpp"
#include "dsp/types.hpp"

namespace datc::uwb {

using dsp::Real;

struct AerConfig {
  unsigned address_bits{3};       ///< up to 8 electrodes, as in the dataset
  Real min_spacing_s{1e-3};       ///< one packet per UWB slot
  Real max_queue_delay_s{20e-3};  ///< events later than this are dropped
};

struct AerStats {
  std::size_t in_events{0};
  std::size_t sent{0};
  std::size_t dropped{0};
  Real max_delay_s{0.0};
  /// Demux-side: events whose decoded address lies outside [0,
  /// num_channels) — address-field bit errors, kept out of every channel.
  std::size_t invalid_address{0};
};

/// The AER arbiter: channels push time-ordered events; release_below(w)
/// takes every queued event with time_s < w in stable (time, channel,
/// FIFO) order through send_at = max(t, next_free): an event delayed past
/// max_queue_delay_s is dropped, else sent and next_free = send_at +
/// min_spacing_s. No push may hold an event below a released watermark,
/// so every watermark schedule emits what one release_below(+inf) does.
class AerArbiter {
 public:
  /// Requires address_bits <= 16 (Event::channel's width), num_channels
  /// <= 2^address_bits (no aliasing) and non-negative timing parameters.
  AerArbiter(const AerConfig& config, std::size_t num_channels);
  /// `events` must be time-ordered (the caller's precondition) and start
  /// no earlier than the channel's last push or any released watermark
  /// (checked).
  void push(std::size_t channel, std::span<const core::Event> events);
  /// Appends the events sent below `watermark` to `out`.
  void release_below(Real watermark, core::EventStream& out);
  /// Busy-until: no later release sends an event earlier.
  [[nodiscard]] Real next_free() const { return next_free_; }
  [[nodiscard]] const AerStats& stats() const { return stats_; }

 private:
  AerConfig config_;
  std::vector<std::vector<core::Event>> queues_;  ///< per channel, pending
  std::vector<std::size_t> run_start_;  ///< one release's channel runs
  std::vector<core::Event> runs_;       ///< merge ping-pong buffers,
  std::vector<core::Event> merged_;     ///< reused across releases
  Real released_below_;
  Real next_free_{-1.0};
  AerStats stats_;
};

/// Merges per-channel event streams into one arbitrated AER stream: one
/// whole-stream chunk of AerArbiter (a run that is not time-ordered is
/// stable-sorted first). `channel` fields carry the address.
[[nodiscard]] core::EventStream aer_merge(
    const std::vector<core::EventStream>& channels, const AerConfig& config,
    AerStats* stats = nullptr);

/// The demux routing rule: an address in [0, num_channels) is routed
/// (`sent`); any other is an address-field bit error (`invalid_address`).
[[nodiscard]] inline bool aer_route(const core::Event& e,
                                    std::size_t num_channels, AerStats& stats) {
  ++stats.in_events;
  const bool routed = e.channel < num_channels;
  ++(routed ? stats.sent : stats.invalid_address);
  return routed;
}

/// Splits an AER stream back into per-channel streams (receiver side).
/// Events with an address >= num_channels are counted in
/// `stats->invalid_address` (when stats is given) instead of being
/// silently discarded.
[[nodiscard]] std::vector<core::EventStream> aer_split(
    const core::EventStream& merged, unsigned num_channels,
    AerStats* stats = nullptr);

/// Symbols per AER event: marker + address + code bits.
[[nodiscard]] std::size_t aer_symbols_per_event(const AerConfig& config,
                                                unsigned code_bits);

}  // namespace datc::uwb
