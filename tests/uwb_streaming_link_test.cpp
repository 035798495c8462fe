// The one radio chain (uwb::StreamingLink) against an independent oracle:
// naive whole-train modulate -> propagate (tests/support/link_oracle.hpp)
// -> UwbReceiver, bit for bit, over random chunk schedules. Also pins the
// whole-train adapters (modulate_datc / modulate_aer / propagate, and
// the by-reference Rng contract of propagate) and the channel's config
// validation. The TX/RX halves (transmit_chunk / receive_chunk and
// SharedAerLink's send_chunk / receive_chunk), run with TX up to two
// chunks ahead of RX, must equal run_chunk bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/events.hpp"
#include "dsp/rng.hpp"
#include "support/link_oracle.hpp"
#include "uwb/channel.hpp"
#include "uwb/link_pipeline.hpp"
#include "uwb/modulator.hpp"
#include "uwb/receiver.hpp"
#include "uwb/streaming_link.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

constexpr Real kInf = std::numeric_limits<Real>::infinity();
constexpr unsigned kCodeBits = 4;

struct LinkCase {
  Real erasure_prob;
  Real jitter_rms_s;
  unsigned address_bits;
  bool overlapping_frames;  ///< event gaps shorter than one frame
  bool cache_detection;
};

std::string case_name(const testing::TestParamInfo<LinkCase>& info) {
  const LinkCase& c = info.param;
  std::string s = c.erasure_prob > 0.0 ? "Erasure" : "NoErasure";
  s += c.jitter_rms_s == 0.0     ? "_NoJitter"
       : c.jitter_rms_s < 1e-9   ? "_Jitter50ps"
                                 : "_Jitter300ns";
  s += "_Addr" + std::to_string(c.address_bits);
  if (c.overlapping_frames) s += "_Overlap";
  if (c.cache_detection) s += "_Cached";
  return s;
}

/// Partial detection (Pd ~ 0.95 at 0.7 m) and a high false-alarm rate,
/// so both receiver Rng streams decide outcomes.
uwb::LinkConfig link_for(const LinkCase& c, std::uint64_t seed) {
  uwb::LinkConfig link;
  link.channel = uwb::noiseless_channel();
  link.channel.distance_m = 0.7;
  link.channel.erasure_prob = c.erasure_prob;
  link.channel.jitter_rms_s = c.jitter_rms_s;
  link.detector.false_alarm_prob = 1e-3;
  link.seed = seed;
  return link;
}

core::EventStream random_events(const LinkCase& c, std::size_t n,
                                dsp::Rng& rng) {
  // Frames last (1 + address + code) x 100 ns; overlapping schedules
  // space events below that, the others well above it.
  const Real gap_lo = c.overlapping_frames ? 0.2e-6 : 2e-6;
  const Real gap_hi = c.overlapping_frames ? 1.2e-6 : 30e-6;
  const std::uint64_t addr_max =
      c.address_bits == 0 ? 0 : (std::uint64_t{1} << c.address_bits) - 1;
  core::EventStream ev;
  Real t = 1e-3;
  for (std::size_t i = 0; i < n; ++i) {
    t += rng.uniform(gap_lo, gap_hi);
    ev.add(t, static_cast<std::uint8_t>(rng.integer(0, 15)),
           static_cast<std::uint16_t>(rng.integer(0, addr_max)));
  }
  return ev;
}

/// One run_chunk call: push events [begin, end) under `watermark`.
struct Step {
  std::size_t end;
  Real watermark;
};

/// Random chunking: empty pushes, single events, larger chunks, repeated
/// and stale watermarks. Every watermark is valid — at most the time of
/// the next unpushed event.
std::vector<Step> random_schedule(const core::EventStream& ev, dsp::Rng& rng) {
  const auto& e = ev.events();
  std::vector<Step> steps;
  std::size_t pos = 0;
  Real last_wm = -kInf;
  while (pos < e.size() || rng.chance(0.3)) {
    const Real kind = rng.uniform();
    std::size_t end = pos;
    if (kind < 0.15) {
      end = pos;  // empty push
    } else if (kind < 0.5) {
      end = std::min(pos + 1, e.size());
    } else {
      end = std::min<std::size_t>(pos + rng.integer(2, 40), e.size());
    }
    const Real bound = end < e.size() ? e[end].time_s : e.back().time_s + 1e-3;
    Real wm;
    const Real pick = rng.uniform();
    if (pick < 0.2 && last_wm <= bound) {
      wm = last_wm;  // repeated watermark
    } else if (pick < 0.6) {
      wm = bound;  // as tight as the contract allows
    } else {
      wm = bound - rng.uniform(0.0, 20e-6);  // conservative, may go stale
    }
    steps.push_back(Step{end, wm});
    last_wm = wm;
    pos = end;
    if (pos == e.size() && steps.size() > 2 * e.size() + 8) break;
  }
  return steps;
}

struct Decoded {
  std::size_t pulses_tx{0};
  std::size_t pulses_erased{0};
  core::EventStream events;
  uwb::DecodeStats stats{};
};

Decoded oracle_run(const core::EventStream& tx, const uwb::LinkConfig& link,
                   unsigned address_bits, bool cache_detection) {
  uwb::ModulatorConfig mod = link.modulator;
  mod.code_bits = kCodeBits;
  const auto train = test_support::oracle_modulate_aer(tx, mod, address_bits);
  // The link's fork order, spelled out independently: the receiver
  // stream first, the channel keeps the seed engine.
  dsp::Rng rng(link.seed);
  dsp::Rng rx_rng = rng.fork();
  const auto ch = test_support::oracle_propagate(train, link.channel, rng);
  uwb::UwbReceiverConfig rxc;
  rxc.detector = link.detector;
  rxc.modulator = mod;
  rxc.address_bits = address_bits;
  rxc.decode_codes = true;
  rxc.cache_detection = cache_detection;
  uwb::UwbReceiver rx(rxc, link.channel, rx_rng);
  Decoded out;
  out.pulses_tx = train.size();
  out.pulses_erased = ch.erased;
  out.events = rx.decode(ch.received);
  out.stats = rx.stats();
  return out;
}

Decoded streamed_run(const core::EventStream& tx, const uwb::LinkConfig& link,
                     const LinkCase& c, const std::vector<Step>& steps) {
  uwb::StreamingLink radio(link, kCodeBits, c.address_bits,
                           c.cache_detection);
  Decoded out;
  const std::span<const core::Event> all(tx.events());
  std::size_t pos = 0;
  for (const Step& s : steps) {
    radio.run_chunk(all.subspan(pos, s.end - pos), s.watermark,
                    /*flush=*/false, out.events);
    pos = s.end;
  }
  radio.run_chunk(all.subspan(pos), kInf, /*flush=*/true, out.events);
  out.pulses_tx = radio.pulses_tx();
  out.pulses_erased = radio.pulses_erased();
  out.stats = radio.decode_stats();
  return out;
}

void expect_same_events(const core::EventStream& a, const core::EventStream& b,
                        const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a.events()[i];
    const auto& y = b.events()[i];
    ASSERT_EQ(x.time_s, y.time_s) << "event " << i;
    ASSERT_EQ(x.vth_code, y.vth_code) << "event " << i;
    ASSERT_EQ(x.channel, y.channel) << "event " << i;
  }
}

void expect_same_decode(const uwb::DecodeStats& a, const uwb::DecodeStats& b) {
  EXPECT_EQ(a.pulses_in, b.pulses_in);
  EXPECT_EQ(a.pulses_detected, b.pulses_detected);
  EXPECT_EQ(a.packets_decoded, b.packets_decoded);
  EXPECT_EQ(a.code_bit_ones_missed, b.code_bit_ones_missed);
  EXPECT_EQ(a.false_alarm_bits, b.false_alarm_bits);
}

void expect_same(const Decoded& a, const Decoded& b, const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.pulses_tx, b.pulses_tx);
  EXPECT_EQ(a.pulses_erased, b.pulses_erased);
  expect_same_decode(a.stats, b.stats);
  expect_same_events(a.events, b.events, "events");
}

void expect_same_train(const uwb::PulseTrain& a, const uwb::PulseTrain& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a.pulses()[i];
    const auto& y = b.pulses()[i];
    ASSERT_EQ(x.time_s, y.time_s) << "pulse " << i;
    ASSERT_EQ(x.amplitude_v, y.amplitude_v) << "pulse " << i;
    ASSERT_EQ(x.packet_id, y.packet_id) << "pulse " << i;
    ASSERT_EQ(x.is_marker, y.is_marker) << "pulse " << i;
  }
}

class StreamingLinkOracleTest : public testing::TestWithParam<LinkCase> {};

TEST_P(StreamingLinkOracleTest, AnyChunkScheduleMatchesNaiveChain) {
  const LinkCase& c = GetParam();
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    dsp::Rng gen(1000 + trial);
    const auto tx = random_events(c, 60 + 40 * trial, gen);
    const auto link = link_for(c, 70 + trial);
    const Decoded want = oracle_run(tx, link, c.address_bits,
                                    c.cache_detection);
    ASSERT_GT(want.events.size(), 0u);

    // Whole stream as one chunk, one event per chunk, and random mixes.
    expect_same(streamed_run(tx, link, c, {}), want, "whole stream");
    std::vector<Step> singles;
    for (std::size_t i = 1; i <= tx.size(); ++i) {
      singles.push_back(Step{
          i, i < tx.size() ? tx.events()[i].time_s : kInf});
    }
    expect_same(streamed_run(tx, link, c, singles), want, "1-event chunks");
    for (int s = 0; s < 3; ++s) {
      expect_same(streamed_run(tx, link, c, random_schedule(tx, gen)), want,
                  "random schedule " + std::to_string(s));
    }
  }
}

TEST_P(StreamingLinkOracleTest, BatchAdaptersMatchOracle) {
  const LinkCase& c = GetParam();
  dsp::Rng gen(42);
  const auto tx = random_events(c, 120, gen);
  const auto link = link_for(c, 9);
  uwb::ModulatorConfig mod = link.modulator;
  mod.code_bits = kCodeBits;

  const auto train = uwb::modulate_aer(tx, mod, c.address_bits);
  expect_same_train(train,
                    test_support::oracle_modulate_aer(tx, mod, c.address_bits));
  if (c.address_bits == 0) {
    expect_same_train(uwb::modulate_datc(tx, mod),
                      test_support::oracle_modulate_datc(tx, mod));
  }

  // propagate draws from the caller's Rng and leaves it exactly where
  // the naive loop does: the next draws of both streams agree.
  dsp::Rng rng_a(5);
  dsp::Rng rng_b(5);
  const auto got = uwb::propagate(train, link.channel, rng_a);
  const auto want = test_support::oracle_propagate(train, link.channel, rng_b);
  EXPECT_EQ(got.erased, want.erased);
  expect_same_train(got.received, want.received);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rng_a.gaussian_bm(), rng_b.gaussian_bm()) << "draw " << i;
  }
  EXPECT_EQ(rng_a.canonical(), rng_b.canonical());

  const Decoded oracle = oracle_run(tx, link, c.address_bits,
                                    c.cache_detection);
  if (c.address_bits == 0) {
    const auto run = uwb::run_datc_over_link(tx, link, kCodeBits,
                                             c.cache_detection);
    expect_same(Decoded{run.pulses_tx, run.pulses_erased, run.events_rx,
                        run.decode},
                oracle, "run_datc_over_link");
  }
  uwb::SharedAerConfig shared;
  shared.aer.address_bits = c.address_bits;
  shared.cache_detection = c.cache_detection;
  const unsigned channels = 1u << c.address_bits;
  const auto run = uwb::run_aer_over_link(tx, channels, link, shared,
                                          kCodeBits);
  expect_same(Decoded{run.pulses_tx, run.pulses_erased, run.merged_rx,
                      run.decode},
              oracle, "run_aer_over_link");
}

/// Picks how many sent chunks RX leaves undecoded: 0, 1 or 2.
std::size_t random_lead(dsp::Rng& rng) {
  return static_cast<std::size_t>(rng.integer(0, 2));
}

/// After each chunk is decoded: events so far and the event watermark.
struct ChunkTrace {
  std::vector<std::size_t> events_after;
  std::vector<Real> watermark_after;
};

TEST_P(StreamingLinkOracleTest, SplitHalvesMatchRunChunk) {
  const LinkCase& c = GetParam();
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    dsp::Rng gen(3000 + trial);
    const auto tx = random_events(c, 60 + 40 * trial, gen);
    const auto link = link_for(c, 90 + trial);
    const std::span<const core::Event> all(tx.events());
    auto steps = random_schedule(tx, gen);
    // Odd trials flush a non-empty tail; even ones an empty chunk.
    if (trial % 2 == 1 && steps.size() > 1) steps.resize(steps.size() / 2);

    // Reference: the same schedule through run_chunk.
    uwb::StreamingLink ref(link, kCodeBits, c.address_bits,
                           c.cache_detection);
    Decoded want;
    ChunkTrace want_trace;
    std::size_t pos = 0;
    for (std::size_t i = 0; i <= steps.size(); ++i) {
      const bool flush = i == steps.size();
      const std::size_t end = flush ? tx.size() : steps[i].end;
      ref.run_chunk(all.subspan(pos, end - pos),
                    flush ? kInf : steps[i].watermark, flush, want.events);
      pos = end;
      want_trace.events_after.push_back(want.events.size());
      want_trace.watermark_after.push_back(ref.event_time_watermark());
    }
    want.pulses_tx = ref.pulses_tx();
    want.pulses_erased = ref.pulses_erased();
    want.stats = ref.decode_stats();
    expect_same(want, streamed_run(tx, link, c, {}), "run_chunk schedule");

    // The halves: TX runs 0-2 chunks ahead of RX.
    uwb::StreamingLink radio(link, kCodeBits, c.address_bits,
                             c.cache_detection);
    struct Sent {
      uwb::PulseTrain pulses;
      Real watermark;
    };
    std::deque<Sent> in_flight;
    Decoded got;
    ChunkTrace got_trace;
    const auto receive_front = [&] {
      radio.receive_chunk(in_flight.front().pulses,
                          in_flight.front().watermark, got.events);
      in_flight.pop_front();
      got_trace.events_after.push_back(got.events.size());
      got_trace.watermark_after.push_back(radio.event_time_watermark());
    };
    pos = 0;
    for (std::size_t i = 0; i <= steps.size(); ++i) {
      const bool flush = i == steps.size();
      const std::size_t end = flush ? tx.size() : steps[i].end;
      Sent sent{{}, 0.0};
      sent.watermark = radio.transmit_chunk(
          all.subspan(pos, end - pos), flush ? kInf : steps[i].watermark,
          flush, sent.pulses);
      pos = end;
      in_flight.push_back(std::move(sent));
      const std::size_t lead = flush ? 0 : random_lead(gen);
      while (in_flight.size() > lead) receive_front();
    }
    got.pulses_tx = radio.pulses_tx();
    got.pulses_erased = radio.pulses_erased();
    got.stats = radio.decode_stats();
    expect_same(got, want, "split halves, trial " + std::to_string(trial));
    EXPECT_EQ(got_trace.events_after, want_trace.events_after);
    EXPECT_EQ(got_trace.watermark_after, want_trace.watermark_after);
  }
}

/// Per-channel time-ordered streams for `n` channels, dense enough that
/// the arbiter delays events (about one per 6 us against a 2 us spacing).
std::vector<core::EventStream> random_channels(std::size_t n,
                                               std::size_t events,
                                               dsp::Rng& rng) {
  std::vector<core::EventStream> out(n);
  for (auto& ch : out) {
    Real t = 1e-3;
    for (std::size_t i = 0; i < events; ++i) {
      t += rng.uniform(1e-6, 12e-6 * static_cast<Real>(n));
      ch.add(t, static_cast<std::uint8_t>(rng.integer(0, 15)));
    }
  }
  return out;
}

/// Everything a SharedAerLink run reports.
struct SharedTrace {
  core::EventStream decoded;
  std::vector<std::vector<core::Event>> routed;
  ChunkTrace chunks;
  uwb::AerStats arbiter{};
  uwb::AerStats demux{};
  std::size_t pulses_tx{0};
  std::size_t pulses_erased{0};
  uwb::DecodeStats decode{};
};

void expect_same_aer(const uwb::AerStats& a, const uwb::AerStats& b) {
  EXPECT_EQ(a.in_events, b.in_events);
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.max_delay_s, b.max_delay_s);
  EXPECT_EQ(a.invalid_address, b.invalid_address);
}

void expect_same_shared(const SharedTrace& a, const SharedTrace& b,
                        bool compare_chunks, const std::string& what) {
  SCOPED_TRACE(what);
  expect_same_events(a.decoded, b.decoded, "decoded");
  ASSERT_EQ(a.routed.size(), b.routed.size());
  for (std::size_t c = 0; c < a.routed.size(); ++c) {
    expect_same_events(core::EventStream(a.routed[c]),
                       core::EventStream(b.routed[c]),
                       "channel " + std::to_string(c));
  }
  if (compare_chunks) {
    EXPECT_EQ(a.chunks.events_after, b.chunks.events_after);
    EXPECT_EQ(a.chunks.watermark_after, b.chunks.watermark_after);
  }
  expect_same_aer(a.arbiter, b.arbiter);
  expect_same_aer(a.demux, b.demux);
  EXPECT_EQ(a.pulses_tx, b.pulses_tx);
  EXPECT_EQ(a.pulses_erased, b.pulses_erased);
  expect_same_decode(a.decode, b.decode);
}

/// Drives a SharedAerLink over release watermarks `releases` (then a
/// flush), pushing each channel's events below every watermark first.
/// With `split`, TX runs 0-2 chunks ahead of RX through send_chunk /
/// receive_chunk; otherwise each chunk is one run_chunk.
SharedTrace shared_run(const std::vector<core::EventStream>& channels,
                       const uwb::LinkConfig& link,
                       const uwb::SharedAerConfig& shared,
                       const std::vector<Real>& releases, bool split,
                       dsp::Rng& lead_rng) {
  const std::size_t n = channels.size();
  uwb::SharedAerLink radio(link, shared, kCodeBits, n);
  SharedTrace out;
  out.routed.resize(n);
  std::vector<std::size_t> pushed(n, 0);
  std::deque<uwb::AerAirChunk> in_flight;
  const auto record = [&](const core::EventStream& decoded) {
    for (const auto& e : decoded.events()) {
      out.decoded.add(e.time_s, e.vth_code, e.channel);
    }
    out.chunks.events_after.push_back(out.decoded.size());
    out.chunks.watermark_after.push_back(radio.event_time_watermark());
  };
  for (std::size_t k = 0; k <= releases.size(); ++k) {
    const bool flush = k == releases.size();
    const Real release = flush ? kInf : releases[k];
    for (std::size_t c = 0; c < n; ++c) {
      const auto& ev = channels[c].events();
      std::size_t end = pushed[c];
      while (end < ev.size() && ev[end].time_s < release) ++end;
      radio.push(c, std::span<const core::Event>(ev).subspan(
                        pushed[c], end - pushed[c]));
      pushed[c] = end;
    }
    if (!split) {
      record(radio.run_chunk(release, flush, out.routed));
      continue;
    }
    in_flight.emplace_back();
    radio.send_chunk(release, flush, in_flight.back());
    const std::size_t lead = flush ? 0 : random_lead(lead_rng);
    while (in_flight.size() > lead) {
      record(radio.receive_chunk(in_flight.front(), out.routed));
      in_flight.pop_front();
    }
  }
  out.arbiter = radio.arbiter_stats();
  out.demux = radio.demux_stats();
  out.pulses_tx = radio.pulses_tx();
  out.pulses_erased = radio.pulses_erased();
  out.decode = radio.decode_stats();
  return out;
}

TEST_P(StreamingLinkOracleTest, SharedAerSplitHalvesMatchRunChunk) {
  const LinkCase& c = GetParam();
  const std::size_t n = std::size_t{1} << c.address_bits;
  for (const bool ideal : {false, true}) {
    for (std::uint64_t trial = 0; trial < 3; ++trial) {
      dsp::Rng gen(5000 + trial);
      const auto channels = random_channels(n, 30 + 20 * trial, gen);
      const auto link = link_for(c, 110 + trial);
      uwb::SharedAerConfig shared;
      shared.aer.address_bits = c.address_bits;
      shared.aer.min_spacing_s = 2e-6;
      shared.aer.max_queue_delay_s = 40e-6;
      shared.ideal_radio = ideal;
      shared.cache_detection = c.cache_detection;
      Real last = 0.0;
      for (const auto& ch : channels) last = std::max(last, ch.events().back().time_s);
      // Random rising release watermarks, some repeated; odd trials stop
      // short of the last event, so the flush chunk carries a tail.
      const Real stop = trial % 2 == 1 ? 0.6 * last : last + 1e-3;
      std::vector<Real> releases;
      for (Real t = 1e-3; t < stop;) {
        if (!gen.chance(0.15)) t += gen.uniform(0.0, (last - 1e-3) / 8.0);
        releases.push_back(std::min(t, stop));
      }

      const std::string what = std::string(ideal ? "ideal" : "radio") +
                               ", trial " + std::to_string(trial);
      const SharedTrace whole =
          shared_run(channels, link, shared, {}, /*split=*/false, gen);
      const SharedTrace chunked =
          shared_run(channels, link, shared, releases, /*split=*/false, gen);
      expect_same_shared(chunked, whole, /*compare_chunks=*/false,
                         "run_chunk schedule, " + what);
      for (int rep = 0; rep < 3; ++rep) {
        expect_same_shared(
            shared_run(channels, link, shared, releases, /*split=*/true, gen),
            chunked, /*compare_chunks=*/true,
            "split halves, " + what + ", rep " + std::to_string(rep));
      }
    }
  }
}

std::vector<LinkCase> link_cases() {
  std::vector<LinkCase> cases;
  bool cache = false;
  for (const Real erasure : {0.0, 0.05}) {
    for (const Real jitter : {0.0, 50e-12, 300e-9}) {
      cases.push_back(LinkCase{erasure, jitter, 0, false, cache});
      cases.push_back(LinkCase{erasure, jitter, 3, false, !cache});
      cache = !cache;
    }
  }
  cases.push_back(LinkCase{0.0, 50e-12, 0, true, true});
  cases.push_back(LinkCase{0.05, 300e-9, 3, true, false});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Configs, StreamingLinkOracleTest,
                         testing::ValuesIn(link_cases()), case_name);

TEST(StreamingChannel, RejectsNegativeOrNanJitter) {
  uwb::ChannelConfig ch = uwb::noiseless_channel();
  for (const Real bad : {-1e-9, std::numeric_limits<Real>::quiet_NaN(),
                         std::numeric_limits<Real>::infinity()}) {
    ch.jitter_rms_s = bad;
    EXPECT_THROW(uwb::StreamingChannel(ch, dsp::Rng(1)),
                 std::invalid_argument)
        << "jitter " << bad;
    dsp::Rng rng(1);
    EXPECT_THROW((void)uwb::propagate(uwb::PulseTrain{}, ch, rng),
                 std::invalid_argument)
        << "jitter " << bad;
  }
  ch.jitter_rms_s = 0.0;
  EXPECT_NO_THROW(uwb::StreamingChannel(ch, dsp::Rng(1)));
}

TEST(StreamingUwbReceiver, RejectsBadSlotGeometry) {
  const auto make = [](Real symbol_period_s, Real slot_tolerance) {
    uwb::UwbReceiverConfig rxc;
    rxc.modulator.symbol_period_s = symbol_period_s;
    rxc.slot_tolerance = slot_tolerance;
    return uwb::StreamingUwbReceiver(rxc, uwb::noiseless_channel(),
                                     dsp::Rng(1));
  };
  constexpr Real kNan = std::numeric_limits<Real>::quiet_NaN();
  for (const Real ts : {0.0, -1e-7, kNan, kInf}) {
    EXPECT_THROW((void)make(ts, 0.25), std::invalid_argument)
        << "symbol period " << ts;
  }
  for (const Real tol : {kNan, -0.01, 0.5, 0.75, kInf}) {
    EXPECT_THROW((void)make(100e-9, tol), std::invalid_argument)
        << "slot tolerance " << tol;
  }
  EXPECT_NO_THROW((void)make(100e-9, 0.0));
  EXPECT_NO_THROW((void)make(100e-9, 0.4999));
  // The whole-train receiver shares the core, and so the validation.
  uwb::UwbReceiverConfig rxc;
  rxc.slot_tolerance = kNan;
  EXPECT_THROW(uwb::UwbReceiver(rxc, uwb::noiseless_channel(), dsp::Rng(1)),
               std::invalid_argument);
}

}  // namespace
