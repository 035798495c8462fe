#include "uwb/aer.hpp"

#include <algorithm>
#include <limits>

#include "dsp/types.hpp"

namespace datc::uwb {

namespace {

// A closure type, not a function pointer, so the sorts and merges inline
// the comparison.
constexpr auto by_time = [](const core::Event& a, const core::Event& b) {
  return a.time_s < b.time_s;
};

}  // namespace

AerArbiter::AerArbiter(const AerConfig& config, std::size_t num_channels)
    : config_(config),
      released_below_(-std::numeric_limits<Real>::infinity()) {
  // core::Event::channel is 16 bits wide; a larger address space would
  // truncate addresses on tagging and alias high channels onto low ones.
  dsp::require(config.address_bits <= 16,
               "AerArbiter: address space wider than Event::channel");
  dsp::require(num_channels <= (std::size_t{1} << config.address_bits),
               "AerArbiter: more channels than the address space");
  dsp::require(config.min_spacing_s >= 0.0 && config.max_queue_delay_s >= 0.0,
               "AerArbiter: timing parameters must be non-negative");
  queues_.resize(num_channels);
}

void AerArbiter::push(std::size_t channel,
                      std::span<const core::Event> events) {
  dsp::require(channel < queues_.size(), "AerArbiter: channel out of range");
  if (events.empty()) return;
  auto& queue = queues_[channel];
  const Real after = queue.empty() ? released_below_ : queue.back().time_s;
  dsp::require(!(events.front().time_s < after),
               "AerArbiter: events pushed out of time order");
  queue.insert(queue.end(), events.begin(), events.end());
}

void AerArbiter::release_below(Real watermark, core::EventStream& out) {
  released_below_ = std::max(released_below_, watermark);
  // Gather the channels' released prefixes, channel-major and tagged with
  // the address, then merge the runs bottom-up, ping-ponging between two
  // reused buffers. std::merge takes the left run first on ties, so the
  // lower channel leads: the result is the stable sort of the
  // channel-major concatenation.
  std::size_t pending = 0;
  for (const auto& queue : queues_) pending += queue.size();
  runs_.clear();
  runs_.reserve(pending);
  run_start_.assign(1, 0);
  for (std::size_t c = 0; c < queues_.size(); ++c) {
    auto& queue = queues_[c];
    const auto end = std::partition_point(
        queue.begin(), queue.end(),
        [watermark](const core::Event& e) { return e.time_s < watermark; });
    for (auto it = queue.begin(); it != end; ++it) {
      runs_.push_back(
          core::Event{it->time_s, it->vth_code, static_cast<std::uint16_t>(c)});
    }
    queue.erase(queue.begin(), end);
    run_start_.push_back(runs_.size());
  }
  merged_.resize(runs_.size());
  std::vector<core::Event>* src = &runs_;
  std::vector<core::Event>* dst = &merged_;
  const std::size_t runs = queues_.size();
  const auto at = [this](std::vector<core::Event>* buf, std::size_t run) {
    return buf->data() + run_start_[run];
  };
  for (std::size_t width = 1; width < runs; width *= 2) {
    for (std::size_t lo = 0; lo < runs; lo += 2 * width) {
      const std::size_t mid = std::min(lo + width, runs);
      const std::size_t hi = std::min(lo + 2 * width, runs);
      std::merge(at(src, lo), at(src, mid), at(src, mid), at(src, hi),
                 at(dst, lo), by_time);
    }
    std::swap(src, dst);
  }

  // The recurrence, appending the sent events behind `out`'s.
  std::vector<core::Event> sent = out.take();
  sent.reserve(sent.size() + src->size());
  stats_.in_events += src->size();
  for (const core::Event& e : *src) {
    const Real send_at = std::max(e.time_s, next_free_);
    const Real delay = send_at - e.time_s;
    if (delay > config_.max_queue_delay_s) {
      ++stats_.dropped;
      continue;
    }
    sent.push_back(core::Event{send_at, e.vth_code, e.channel});
    next_free_ = send_at + config_.min_spacing_s;
    ++stats_.sent;
    stats_.max_delay_s = std::max(stats_.max_delay_s, delay);
  }
  out = core::EventStream(std::move(sent));
}

core::EventStream aer_merge(const std::vector<core::EventStream>& channels,
                            const AerConfig& config, AerStats* stats) {
  AerArbiter arbiter(config, channels.size());
  std::vector<core::Event> run;
  for (std::size_t c = 0; c < channels.size(); ++c) {
    const auto& ev = channels[c].events();
    if (std::is_sorted(ev.begin(), ev.end(), by_time)) {
      arbiter.push(c, ev);  // encoders emit in time order
      continue;
    }
    run.assign(ev.begin(), ev.end());
    std::stable_sort(run.begin(), run.end(), by_time);
    arbiter.push(c, run);
  }
  core::EventStream out;
  arbiter.release_below(std::numeric_limits<Real>::infinity(), out);
  if (stats != nullptr) *stats = arbiter.stats();
  return out;
}

std::vector<core::EventStream> aer_split(const core::EventStream& merged,
                                         unsigned num_channels,
                                         AerStats* stats) {
  dsp::require(num_channels >= 1, "aer_split: need >= 1 channel");
  AerStats local;
  std::vector<core::EventStream> out(num_channels);
  for (const auto& e : merged.events()) {
    if (aer_route(e, num_channels, local)) {
      out[e.channel].add(e.time_s, e.vth_code, e.channel);
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
