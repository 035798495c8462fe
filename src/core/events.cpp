#include "core/events.hpp"
#include "dsp/sort.hpp"
#include "dsp/types.hpp"

#include <algorithm>

namespace datc::core {

void EventStream::sort_by_time() {
  // Callers re-sort streams that are in order or nearly so (receiver
  // output in marker order, merged channels).
  dsp::stable_sort_near_sorted(events_, [](const Event& a, const Event& b) {
    return a.time_s < b.time_s;
  });
}

bool EventStream::is_time_sorted() const {
  return std::is_sorted(events_.begin(), events_.end(),
                        [](const Event& a, const Event& b) {
                          return a.time_s < b.time_s;
                        });
}

std::size_t EventStream::count_in(Real t_lo, Real t_hi) const {
  dsp::require(is_time_sorted(), "EventStream::count_in: not sorted");
  const auto lo = std::lower_bound(
      events_.begin(), events_.end(), t_lo,
      [](const Event& e, Real t) { return e.time_s < t; });
  const auto hi = std::lower_bound(
      events_.begin(), events_.end(), t_hi,
      [](const Event& e, Real t) { return e.time_s < t; });
  return static_cast<std::size_t>(std::distance(lo, hi));
}

Real EventStream::mean_rate_hz(Real duration_s) const {
  dsp::require(duration_s > 0.0, "mean_rate_hz: duration must be positive");
  return static_cast<Real>(events_.size()) / duration_s;
}

EventStream EventStream::channel_slice(std::uint16_t channel) const {
  EventStream out;
  for (const auto& e : events_) {
    if (e.channel == channel) out.add(e.time_s, e.vth_code, e.channel);
  }
  return out;
}

}  // namespace datc::core
