#include "uwb/link_pipeline.hpp"

#include <algorithm>
#include <limits>

#include "dsp/rng.hpp"
#include "uwb/aer.hpp"
#include "uwb/modulator.hpp"
#include "uwb/receiver.hpp"
#include "uwb/streaming_link.hpp"

namespace datc::uwb {

namespace {

constexpr Real kInf = std::numeric_limits<Real>::infinity();

ModulatorConfig frame_layout(const LinkConfig& link, unsigned code_bits) {
  ModulatorConfig mod = link.modulator;
  mod.code_bits = code_bits;
  return mod;
}

/// The receiver decodes the frames `mod` emits.
UwbReceiverConfig receiver_config(const LinkConfig& link,
                                  const ModulatorConfig& mod,
                                  unsigned address_bits,
                                  bool cache_detection) {
  UwbReceiverConfig rxc;
  rxc.detector = link.detector;
  rxc.modulator = mod;
  rxc.address_bits = address_bits;
  rxc.decode_codes = true;
  rxc.cache_detection = cache_detection;
  return rxc;
}

}  // namespace

LinkRngs link_rngs(std::uint64_t seed) {
  dsp::Rng rng(seed);
  dsp::Rng rx = rng.fork();
  return LinkRngs{rng, rx};
}

StreamingLink::StreamingLink(const LinkConfig& link, unsigned code_bits,
                             unsigned address_bits, bool cache_detection)
    : StreamingLink(link, code_bits, address_bits, cache_detection,
                    link_rngs(link.seed)) {}

StreamingLink::StreamingLink(const LinkConfig& link, unsigned code_bits,
                             unsigned address_bits, bool cache_detection,
                             LinkRngs rngs)
    : modulator_(frame_layout(link, code_bits), address_bits),
      channel_(link.channel, rngs.channel),
      receiver_(receiver_config(link, modulator_.config(), address_bits,
                                cache_detection),
                link.channel, rngs.rx) {}

void StreamingLink::run_chunk(std::span<const core::Event> events,
                              Real watermark, bool flush,
                              core::EventStream& out) {
  rx_.clear();
  const Real rx_watermark = transmit_chunk(events, watermark, flush, rx_);
  receive_chunk(rx_, rx_watermark, out);
}

Real StreamingLink::transmit_chunk(std::span<const core::Event> events,
                                   Real watermark, bool flush,
                                   PulseTrain& rx) {
  tx_.clear();
  // Worst case: every slot of every frame carries a pulse.
  tx_.reserve(events.size() * (1 + modulator_.address_bits() +
                               modulator_.config().code_bits));
  modulator_.modulate_chunk(events, tx_);
  channel_.propagate_chunk(tx_, watermark, rx);
  if (flush) channel_.flush(rx);
  return flush ? kInf : channel_.release_watermark();
}

std::size_t StreamingLink::buffered_bytes() const {
  return (channel_.buffered() + receiver_.pending() +
          tx_.pulses().capacity() + rx_.pulses().capacity()) *
         sizeof(PulseEmission);
}

SharedAerLink::SharedAerLink(const LinkConfig& link,
                             const SharedAerConfig& shared, unsigned code_bits,
                             std::size_t num_channels)
    : arbiter_(shared.aer, num_channels) {
  if (!shared.ideal_radio) {
    link_.emplace(link, code_bits, shared.aer.address_bits,
                  shared.cache_detection);
  }
}

const core::EventStream& SharedAerLink::run_chunk(
    Real release_below, bool flush,
    std::span<std::vector<core::Event>> routed) {
  send_chunk(release_below, flush, air_);
  return receive_chunk(air_, routed);
}

void SharedAerLink::send_chunk(Real release_below, bool flush,
                               AerAirChunk& air) {
  air.pulses.clear();
  air.flush = flush;
  // Under ideal_radio the released events are what goes on the air.
  core::EventStream& released = link_ ? released_ : air.events;
  released.clear();
  arbiter_.release_below(release_below, released);
  // Future released events leave at max(event time, arbiter busy-until).
  const Real sent_after = std::max(release_below, arbiter_.next_free());
  air.watermark =
      link_ ? link_->transmit_chunk(released.events(), sent_after, flush,
                                    air.pulses)
            : (flush ? kInf : sent_after);
}

const core::EventStream& SharedAerLink::receive_chunk(
    const AerAirChunk& air, std::span<std::vector<core::Event>> routed) {
  const core::EventStream* decoded = &air.events;
  if (link_) {
    decoded_.clear();
    link_->receive_chunk(air.pulses, air.watermark, decoded_);
    decoded = &decoded_;
  } else {
    ideal_watermark_ = air.watermark;
  }
  for (const auto& e : decoded->events()) {
    if (aer_route(e, routed.size(), demux_)) routed[e.channel].push_back(e);
  }
  return *decoded;
}

Real SharedAerLink::event_time_watermark() const {
  return link_ ? link_->event_time_watermark() : ideal_watermark_;
}

DatcLinkRun run_datc_over_link(const core::EventStream& tx,
                               const LinkConfig& link, unsigned code_bits,
                               bool cache_detection) {
  StreamingLink radio(link, code_bits, /*address_bits=*/0, cache_detection);
  DatcLinkRun out;
  out.events_rx.reserve(tx.size());
  radio.run_chunk(tx.events(), kInf, /*flush=*/true, out.events_rx);
  out.pulses_tx = radio.pulses_tx();
  out.pulses_erased = radio.pulses_erased();
  out.decode = radio.decode_stats();
  return out;
}

SharedAerRun run_aer_over_link(
    const std::vector<core::EventStream>& tx_channels, const LinkConfig& link,
    const SharedAerConfig& shared, unsigned code_bits) {
  // An empty batch is a no-op, as in the per-channel mode (aer_split
  // would otherwise reject num_channels == 0 deep inside the pipeline).
  if (tx_channels.empty()) return SharedAerRun{};
  const auto num_channels = static_cast<unsigned>(tx_channels.size());
  AerStats arbiter;
  auto out = run_aer_over_link(aer_merge(tx_channels, shared.aer, &arbiter),
                               num_channels, link, shared, code_bits);
  out.arbiter = arbiter;
  return out;
}

SharedAerRun run_aer_over_link(const core::EventStream& merged_tx,
                               unsigned num_channels, const LinkConfig& link,
                               const SharedAerConfig& shared,
                               unsigned code_bits) {
  SharedAerRun out;
  out.merged_tx = merged_tx;

  if (shared.ideal_radio) {
    out.merged_rx = out.merged_tx;
  } else {
    StreamingLink radio(link, code_bits, shared.aer.address_bits,
                        shared.cache_detection);
    out.merged_rx.reserve(merged_tx.size());
    radio.run_chunk(merged_tx.events(), kInf, /*flush=*/true, out.merged_rx);
    out.pulses_tx = radio.pulses_tx();
    out.pulses_erased = radio.pulses_erased();
    out.decode = radio.decode_stats();
  }

  out.per_channel_rx = aer_split(out.merged_rx, num_channels, &out.demux);
  return out;
}

}  // namespace datc::uwb
