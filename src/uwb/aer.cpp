#include "dsp/types.hpp"
#include "uwb/aer.hpp"

#include <algorithm>

namespace datc::uwb {

core::EventStream aer_merge(const std::vector<core::EventStream>& channels,
                            const AerConfig& config, AerStats* stats) {
  // core::Event::channel is 16 bits wide; a larger address space would
  // truncate addresses on tagging and alias high channels onto low ones.
  dsp::require(config.address_bits <= 16,
               "aer_merge: address space wider than Event::channel");
  dsp::require(channels.size() <= (std::size_t{1} << config.address_bits),
               "aer_merge: more channels than the address space");
  dsp::require(config.min_spacing_s >= 0.0 && config.max_queue_delay_s >= 0.0,
               "aer_merge: timing parameters must be non-negative");

  // Gather all events with their channel addresses, channel-major. Each
  // channel's run is normally already time-ordered (encoders emit in
  // order); an unsorted run is stable-sorted on its own.
  const auto by_time = [](const core::Event& a, const core::Event& b) {
    return a.time_s < b.time_s;
  };
  std::size_t total = 0;
  for (const auto& ch : channels) total += ch.size();
  std::vector<core::Event> all;
  all.reserve(total);
  // Channel c's run is [run_start[c], run_start[c + 1]).
  std::vector<std::size_t> run_start;
  run_start.reserve(channels.size() + 1);
  for (std::size_t c = 0; c < channels.size(); ++c) {
    const auto first = static_cast<std::ptrdiff_t>(all.size());
    run_start.push_back(all.size());
    for (const auto& e : channels[c].events()) {
      core::Event tagged = e;
      tagged.channel = static_cast<std::uint16_t>(c);
      all.push_back(tagged);
    }
    if (!std::is_sorted(all.begin() + first, all.end(), by_time)) {
      std::stable_sort(all.begin() + first, all.end(), by_time);
    }
  }
  run_start.push_back(all.size());
  // Merge neighbouring runs bottom-up. inplace_merge is stable and keeps
  // the left (lower-channel) run first on ties, so the result is exactly
  // the stable sort of the channel-major concatenation.
  const auto run_begin = [&all, &run_start](std::size_t run) {
    return all.begin() + static_cast<std::ptrdiff_t>(run_start[run]);
  };
  for (std::size_t width = 1; width < channels.size(); width *= 2) {
    for (std::size_t lo = 0; lo + width < channels.size(); lo += 2 * width) {
      const std::size_t hi = std::min(lo + 2 * width, channels.size());
      std::inplace_merge(run_begin(lo), run_begin(lo + width), run_begin(hi),
                         by_time);
    }
  }

  AerStats local;
  local.in_events = all.size();
  core::EventStream out;
  out.reserve(all.size());
  Real next_free = -1.0;
  for (const auto& e : all) {
    const Real send_at = std::max(e.time_s, next_free);
    const Real delay = send_at - e.time_s;
    if (delay > config.max_queue_delay_s) {
      ++local.dropped;
      continue;
    }
    out.add(send_at, e.vth_code, e.channel);
    next_free = send_at + config.min_spacing_s;
    ++local.sent;
    local.max_delay_s = std::max(local.max_delay_s, delay);
  }
  if (stats != nullptr) *stats = local;
  return out;
}

std::vector<core::EventStream> aer_split(const core::EventStream& merged,
                                         unsigned num_channels,
                                         AerStats* stats) {
  dsp::require(num_channels >= 1, "aer_split: need >= 1 channel");
  AerStats local;
  local.in_events = merged.size();
  std::vector<core::EventStream> out(num_channels);
  for (const auto& e : merged.events()) {
    if (e.channel < num_channels) {
      out[e.channel].add(e.time_s, e.vth_code, e.channel);
      ++local.sent;
    } else {
      ++local.invalid_address;
    }
  }
  if (stats != nullptr) *stats = local;
  return out;
}

std::size_t aer_symbols_per_event(const AerConfig& config,
                                  unsigned code_bits) {
  return 1 + config.address_bits + code_bits;
}

}  // namespace datc::uwb
