#pragma once
// Test-only reference for the AER arbiter and demux: the naive
// whole-stream formulation (tag and concatenate the channels
// channel-major, one std::stable_sort by time, then the spacing/drop
// recurrence; demux by address range), kept deliberately plain and
// independent of uwb::AerArbiter — the one production arbiter — so
// parity tests compare two different computations.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/events.hpp"
#include "dsp/types.hpp"
#include "uwb/aer.hpp"

namespace datc::test_support {

using dsp::Real;

struct OracleAerMerge {
  core::EventStream merged;
  uwb::AerStats stats;
};

inline OracleAerMerge oracle_aer_merge(
    const std::vector<core::EventStream>& channels,
    const uwb::AerConfig& config) {
  std::vector<core::Event> all;
  for (std::size_t c = 0; c < channels.size(); ++c) {
    for (core::Event e : channels[c].events()) {
      e.channel = static_cast<std::uint16_t>(c);
      all.push_back(e);
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const core::Event& a, const core::Event& b) {
                     return a.time_s < b.time_s;
                   });
  OracleAerMerge out;
  out.stats.in_events = all.size();
  Real next_free = -1.0;
  for (const auto& e : all) {
    const Real send_at = std::max(e.time_s, next_free);
    const Real delay = send_at - e.time_s;
    if (delay > config.max_queue_delay_s) {
      ++out.stats.dropped;
      continue;
    }
    out.merged.add(send_at, e.vth_code, e.channel);
    next_free = send_at + config.min_spacing_s;
    ++out.stats.sent;
    out.stats.max_delay_s = std::max(out.stats.max_delay_s, delay);
  }
  return out;
}

inline std::vector<core::EventStream> oracle_aer_split(
    const core::EventStream& merged, unsigned num_channels,
    uwb::AerStats& stats) {
  stats = uwb::AerStats{};
  stats.in_events = merged.size();
  std::vector<core::EventStream> out(num_channels);
  for (const auto& e : merged.events()) {
    if (e.channel < num_channels) {
      out[e.channel].add(e.time_s, e.vth_code, e.channel);
      ++stats.sent;
    } else {
      ++stats.invalid_address;
    }
  }
  return out;
}

/// Every AerStats field equal, max_delay_s bit for bit.
inline bool aer_stats_bit_equal(const uwb::AerStats& a,
                                const uwb::AerStats& b) {
  return a.in_events == b.in_events && a.sent == b.sent &&
         a.dropped == b.dropped && a.invalid_address == b.invalid_address &&
         std::bit_cast<std::uint64_t>(a.max_delay_s) ==
             std::bit_cast<std::uint64_t>(b.max_delay_s);
}

/// Index of the first event that differs in time bits, code or address
/// (or the shorter length when one stream is a prefix); -1 when equal.
inline long first_event_mismatch(const core::EventStream& a,
                                 const core::EventStream& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (std::bit_cast<std::uint64_t>(a[i].time_s) !=
            std::bit_cast<std::uint64_t>(b[i].time_s) ||
        a[i].vth_code != b[i].vth_code || a[i].channel != b[i].channel) {
      return static_cast<long>(i);
    }
  }
  return a.size() == b.size() ? -1 : static_cast<long>(n);
}

}  // namespace datc::test_support
