// UWB link: modulation layout, channel statistics, energy-detector
// probabilities, packet decode round-trips and AER arbitration.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "dsp/rng.hpp"
#include "uwb/aer.hpp"
#include "uwb/channel.hpp"
#include "uwb/modulator.hpp"
#include "uwb/receiver.hpp"
#include "support/aer_oracle.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

core::EventStream make_events(std::size_t n, Real spacing_s,
                              std::uint8_t code) {
  core::EventStream ev;
  for (std::size_t i = 0; i < n; ++i) {
    ev.add(1e-3 + spacing_s * static_cast<Real>(i), code);
  }
  return ev;
}

TEST(Modulator, AtcOnePulsePerEvent) {
  const auto ev = make_events(10, 1e-3, 0);
  const auto train = uwb::modulate_atc(ev, uwb::ModulatorConfig{});
  EXPECT_EQ(train.size(), 10u);
  for (const auto& p : train.pulses()) EXPECT_TRUE(p.is_marker);
}

TEST(Modulator, DatcPacketLayout) {
  // Code 0b1010 (10): marker + 2 one-bits = 3 pulses per event.
  const auto ev = make_events(4, 1e-3, 10);
  uwb::ModulatorConfig mod;
  const auto train = uwb::modulate_datc(ev, mod);
  EXPECT_EQ(train.size(), 4u * 3u);
  // MSB-first: bit slots 1 and 3 carry pulses for 0b1010.
  const auto& p = train.pulses();
  EXPECT_TRUE(p[0].is_marker);
  EXPECT_NEAR(p[1].time_s - p[0].time_s, 1.0 * mod.symbol_period_s, 1e-12);
  EXPECT_NEAR(p[2].time_s - p[0].time_s, 3.0 * mod.symbol_period_s, 1e-12);
}

TEST(Modulator, AllOnesCodeFullPacket) {
  const auto ev = make_events(1, 1e-3, 15);
  const auto train = uwb::modulate_datc(ev, uwb::ModulatorConfig{});
  EXPECT_EQ(train.size(), 5u);  // marker + 4 bits
  EXPECT_DOUBLE_EQ(uwb::packet_duration_s(uwb::ModulatorConfig{}),
                   5.0 * 100e-9);
}

TEST(Channel, GainDecreasesWithDistance) {
  uwb::ChannelConfig near;
  near.distance_m = 0.5;
  uwb::ChannelConfig far = near;
  far.distance_m = 3.0;
  EXPECT_GT(uwb::channel_gain(near), uwb::channel_gain(far));
  EXPECT_GT(uwb::channel_gain(near), 0.0);
}

TEST(Channel, ErasureStatistics) {
  const auto ev = make_events(2000, 1e-4, 15);
  const auto train = uwb::modulate_atc(ev, uwb::ModulatorConfig{});
  uwb::ChannelConfig ch;
  ch.erasure_prob = 0.25;
  dsp::Rng rng(3);
  const auto out = uwb::propagate(train, ch, rng);
  EXPECT_NEAR(static_cast<Real>(out.erased), 2000.0 * 0.25, 80.0);
  EXPECT_EQ(out.received.size() + out.erased, train.size());
}

TEST(Channel, JitterPerturbsTimes) {
  const auto ev = make_events(100, 1e-4, 0);
  const auto train = uwb::modulate_atc(ev, uwb::ModulatorConfig{});
  uwb::ChannelConfig ch;
  ch.jitter_rms_s = 1e-9;
  dsp::Rng rng(5);
  const auto out = uwb::propagate(train, ch, rng);
  Real max_shift = 0.0;
  for (std::size_t i = 0; i < out.received.size(); ++i) {
    max_shift = std::max(max_shift, std::abs(out.received.pulses()[i].time_s -
                                             train.pulses()[i].time_s));
  }
  EXPECT_GT(max_shift, 1e-10);
  EXPECT_LT(max_shift, 1e-8);
}

TEST(Channel, NoiseRmsSane) {
  uwb::ChannelConfig ch;
  const Real n = uwb::noise_rms_v(ch, 2e9);
  // Thermal noise with 6 dB NF in 2 GHz across 50 ohm: tens of microvolts.
  EXPECT_GT(n, 1e-6);
  EXPECT_LT(n, 1e-3);
}

TEST(Detector, ProbabilityMonotoneInEnergy) {
  uwb::EnergyDetectorConfig det;
  uwb::ChannelConfig ch;
  Real last = 0.0;
  for (const Real e : {1e-18, 1e-17, 1e-16, 1e-15, 1e-14}) {
    const Real pd = uwb::detection_probability(det, ch, e);
    EXPECT_GE(pd, last - 1e-12);
    last = pd;
  }
  // Strong pulse: certain detection; zero energy: near the false-alarm
  // floor.
  EXPECT_GT(uwb::detection_probability(det, ch, 1e-12), 0.999);
  EXPECT_LT(uwb::detection_probability(det, ch, 0.0), 0.01);
}

uwb::ChannelConfig strong_link() {
  uwb::ChannelConfig ch;
  ch.distance_m = 0.3;
  ch.ref_loss_db = 30.0;
  return ch;
}

TEST(Receiver, LosslessRoundTripRecoversCodes) {
  const auto ev = make_events(50, 1e-3, 11);
  uwb::ModulatorConfig mod;
  mod.shape.amplitude_v = 0.5;
  const auto train = uwb::modulate_datc(ev, mod);
  const auto ch = strong_link();
  dsp::Rng rng(7);
  const auto prop = uwb::propagate(train, ch, rng);

  uwb::UwbReceiverConfig rxc;
  rxc.modulator = mod;
  uwb::UwbReceiver rx(rxc, ch, dsp::Rng(8));
  const auto decoded = rx.decode(prop.received);
  ASSERT_EQ(decoded.size(), 50u);
  for (const auto& e : decoded.events()) {
    EXPECT_EQ(e.vth_code, 11u);
  }
  EXPECT_EQ(rx.stats().packets_decoded, 50u);
  EXPECT_EQ(rx.stats().pulses_detected, rx.stats().pulses_in);
}

TEST(Receiver, WeakLinkLosesEvents) {
  const auto ev = make_events(200, 1e-3, 15);
  uwb::ModulatorConfig mod;
  mod.shape.amplitude_v = 0.5;
  const auto train = uwb::modulate_datc(ev, mod);
  uwb::ChannelConfig ch;
  ch.distance_m = 50.0;  // absurdly far for a body-area link
  ch.path_loss_exponent = 3.0;
  dsp::Rng rng(9);
  const auto prop = uwb::propagate(train, ch, rng);
  uwb::UwbReceiverConfig rxc;
  rxc.modulator = mod;
  uwb::UwbReceiver rx(rxc, ch, dsp::Rng(10));
  const auto decoded = rx.decode(prop.received);
  EXPECT_LT(decoded.size(), 150u);
}

TEST(Receiver, MarkerOnlyModeForAtc) {
  const auto ev = make_events(30, 1e-3, 0);
  uwb::ModulatorConfig mod;
  mod.shape.amplitude_v = 0.5;
  const auto train = uwb::modulate_atc(ev, mod);
  const auto ch = strong_link();
  dsp::Rng rng(1);
  const auto prop = uwb::propagate(train, ch, rng);
  uwb::UwbReceiverConfig rxc;
  rxc.modulator = mod;
  rxc.decode_codes = false;
  uwb::UwbReceiver rx(rxc, ch, dsp::Rng(2));
  EXPECT_EQ(rx.decode(prop.received).size(), 30u);
}

TEST(Aer, MergePreservesEventsAndAddresses) {
  std::vector<core::EventStream> chans(3);
  chans[0].add(0.010, 5);
  chans[1].add(0.020, 6);
  chans[2].add(0.030, 7);
  uwb::AerStats stats;
  const auto merged = uwb::aer_merge(chans, uwb::AerConfig{}, &stats);
  EXPECT_EQ(merged.size(), 3u);
  EXPECT_EQ(stats.sent, 3u);
  EXPECT_EQ(stats.dropped, 0u);
  const auto split = uwb::aer_split(merged, 3);
  EXPECT_EQ(split[0].size(), 1u);
  EXPECT_EQ(split[1][0].vth_code, 6u);
}

TEST(Aer, ArbitrationDelaysCollisions) {
  std::vector<core::EventStream> chans(2);
  chans[0].add(0.010, 1);
  chans[1].add(0.010, 2);  // simultaneous
  uwb::AerConfig cfg;
  cfg.min_spacing_s = 1e-3;
  uwb::AerStats stats;
  const auto merged = uwb::aer_merge(chans, cfg, &stats);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_NEAR(merged[1].time_s - merged[0].time_s, 1e-3, 1e-12);
  EXPECT_GT(stats.max_delay_s, 0.0);
}

TEST(Aer, DropsBeyondLatencyBudget) {
  std::vector<core::EventStream> chans(1);
  for (int i = 0; i < 100; ++i) chans[0].add(0.010, 0);  // burst
  uwb::AerConfig cfg;
  cfg.min_spacing_s = 1e-3;
  cfg.max_queue_delay_s = 5e-3;
  uwb::AerStats stats;
  const auto merged = uwb::aer_merge(chans, cfg, &stats);
  EXPECT_LT(merged.size(), 100u);
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_EQ(stats.sent + stats.dropped, 100u);
}

TEST(Receiver, OffSlotMarkerResumesReassembly) {
  // Regression: a pulse inside an open frame's window that misses every
  // slot tolerance (e.g. the jittered marker of the next packet) used to
  // be consumed with the frame, so that packet — and everything it
  // started — was lost. The receiver must resume reassembly at the first
  // unclaimed pulse.
  uwb::ModulatorConfig mod;  // ts = 100 ns, 4 code bits, tol 25 ns
  const Real ts = mod.symbol_period_s;
  const Real amp = 0.5;  // far above the detector floor: Pd = 1
  const Real t0 = 1e-3;
  uwb::PulseTrain train;
  // Packet A: bare marker (code 0).
  train.add({t0, amp, 0, true});
  // Packet B: marker jittered to 1.5 slots after A — inside A's window,
  // off every slot. Code 15 -> all four bit slots pulsed.
  const Real tb = t0 + 1.5 * ts;
  train.add({tb, amp, 1, true});
  for (unsigned b = 1; b <= 4; ++b) {
    train.add({tb + static_cast<Real>(b) * ts, amp, 1, false});
  }
  // Packet C: well clear of both, code 5 = 0b0101 -> slots 2 and 4.
  const Real tc = t0 + 3e-6;
  train.add({tc, amp, 2, true});
  train.add({tc + 2.0 * ts, amp, 2, false});
  train.add({tc + 4.0 * ts, amp, 2, false});

  uwb::UwbReceiverConfig rxc;
  rxc.modulator = mod;
  rxc.detector.false_alarm_prob = 1e-9;
  uwb::UwbReceiver rx(rxc, strong_link(), dsp::Rng(21));
  const auto decoded = rx.decode(train);
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_DOUBLE_EQ(decoded[0].time_s, t0);
  EXPECT_EQ(decoded[0].vth_code, 0u);
  EXPECT_DOUBLE_EQ(decoded[1].time_s, tb);
  EXPECT_EQ(decoded[1].vth_code, 15u);
  EXPECT_DOUBLE_EQ(decoded[2].time_s, tc);
  EXPECT_EQ(decoded[2].vth_code, 5u);
  EXPECT_EQ(rx.stats().packets_decoded, 3u);
}

TEST(Receiver, ClaimedBitsAreNotPromotedToMarkers) {
  // Companion regression to the resume fix: a pulse claimed as a data bit
  // of one frame must not be revisited as a marker after reassembly
  // resumes at an earlier unclaimed pulse, or every jittered marker would
  // also fabricate a spurious trailing packet.
  uwb::ModulatorConfig mod;  // ts = 100 ns, 4 code bits, tol 25 ns
  const Real ts = mod.symbol_period_s;
  const Real amp = 0.5;
  const Real t0 = 1e-3;
  uwb::PulseTrain train;
  train.add({t0, amp, 0, true});              // marker A
  train.add({t0 + 1.5 * ts, amp, 1, true});   // off-slot marker B
  train.add({t0 + 2.0 * ts, amp, 0, false});  // A's bit slot 2

  uwb::UwbReceiverConfig rxc;
  rxc.modulator = mod;
  rxc.detector.false_alarm_prob = 1e-9;
  uwb::UwbReceiver rx(rxc, strong_link(), dsp::Rng(22));
  const auto decoded = rx.decode(train);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_DOUBLE_EQ(decoded[0].time_s, t0);
  EXPECT_EQ(decoded[0].vth_code, 4u);  // slot 2 of 4, MSB-first
  EXPECT_DOUBLE_EQ(decoded[1].time_s, t0 + 1.5 * ts);
  // B's only in-window candidate was already claimed by A: code 0, and no
  // spurious third packet from the claimed pulse.
  EXPECT_EQ(decoded[1].vth_code, 0u);
  EXPECT_EQ(rx.stats().packets_decoded, 2u);
}

TEST(Aer, AddressSpaceValidation) {
  std::vector<core::EventStream> chans(9);
  uwb::AerConfig cfg;
  cfg.address_bits = 3;  // max 8 channels
  EXPECT_THROW((void)uwb::aer_merge(chans, cfg), std::invalid_argument);
  EXPECT_EQ(uwb::aer_symbols_per_event(cfg, 4), 8u);  // 1 + 3 + 4
  uwb::ModulatorConfig mod;  // 100 ns slots, 4 code bits
  EXPECT_DOUBLE_EQ(uwb::aer_frame_duration_s(mod, 3),
                   8.0 * mod.symbol_period_s);
}

TEST(Aer, RoundTripOverNoiselessRadioMatchesIdealReference) {
  // merge -> modulate (marker+address+code) -> noiseless channel ->
  // address-aware decode -> split must be bit/time-exact against the
  // radio-free reference (merge -> split): the shared radio is exactly
  // transparent when nothing in the channel can hurt it.
  const unsigned kChannels = 8;
  std::vector<core::EventStream> chans(kChannels);
  for (unsigned c = 0; c < kChannels; ++c) {
    for (std::size_t i = 0; i < 40; ++i) {
      chans[c].add(1e-3 * static_cast<Real>(i + 1) +
                       37e-6 * static_cast<Real>(c),
                   static_cast<std::uint8_t>((i + c) % 16));
    }
  }
  uwb::AerConfig aer;
  aer.address_bits = 3;
  aer.min_spacing_s = 2e-6;
  uwb::AerStats merge_stats;
  const auto merged = uwb::aer_merge(chans, aer, &merge_stats);
  EXPECT_EQ(merge_stats.dropped, 0u);
  const auto ideal = uwb::aer_split(merged, kChannels);

  uwb::ModulatorConfig mod;
  mod.shape.amplitude_v = 0.5;
  const auto train = uwb::modulate_aer(merged, mod, aer.address_bits);
  dsp::Rng rng(13);
  const auto prop = uwb::propagate(train, uwb::noiseless_channel(), rng);
  ASSERT_EQ(prop.erased, 0u);

  uwb::UwbReceiverConfig rxc;
  rxc.modulator = mod;
  rxc.address_bits = aer.address_bits;
  rxc.detector.false_alarm_prob = 1e-9;
  uwb::UwbReceiver rx(rxc, uwb::noiseless_channel(), rng.fork());
  auto decoded = rx.decode(prop.received);
  decoded.sort_by_time();
  uwb::AerStats split_stats;
  const auto split = uwb::aer_split(decoded, kChannels, &split_stats);
  EXPECT_EQ(split_stats.invalid_address, 0u);

  ASSERT_EQ(split.size(), ideal.size());
  for (unsigned c = 0; c < kChannels; ++c) {
    ASSERT_EQ(split[c].size(), ideal[c].size()) << c;
    for (std::size_t k = 0; k < split[c].size(); ++k) {
      EXPECT_EQ(split[c][k].time_s, ideal[c][k].time_s) << c;
      EXPECT_EQ(split[c][k].vth_code, ideal[c][k].vth_code) << c;
      EXPECT_EQ(split[c][k].channel, c) << c;
    }
  }
}

TEST(Aer, StatsStayConsistentUnderForcedDrops) {
  // A burst far beyond the arbiter's latency budget forces queue-delay
  // drops; the in/sent/dropped accounting must stay exact through the
  // merge and the split.
  std::vector<core::EventStream> chans(3);
  for (unsigned c = 0; c < 3; ++c) {
    for (int i = 0; i < 50; ++i) {
      chans[c].add(0.010, static_cast<std::uint8_t>(c));
    }
  }
  uwb::AerConfig cfg;
  cfg.min_spacing_s = 1e-3;
  cfg.max_queue_delay_s = 5e-3;
  uwb::AerStats stats;
  const auto merged = uwb::aer_merge(chans, cfg, &stats);
  EXPECT_EQ(stats.in_events, 150u);
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_EQ(stats.sent + stats.dropped, stats.in_events);
  EXPECT_EQ(merged.size(), stats.sent);
  EXPECT_LE(stats.max_delay_s, cfg.max_queue_delay_s);

  uwb::AerStats split_stats;
  const auto split = uwb::aer_split(merged, 3, &split_stats);
  std::size_t total = 0;
  for (const auto& s : split) total += s.size();
  EXPECT_EQ(total, stats.sent);
  EXPECT_EQ(split_stats.sent, stats.sent);
  EXPECT_EQ(split_stats.invalid_address, 0u);
}

TEST(Aer, SplitReportsOutOfRangeAddresses) {
  // Address-field bit errors on a noisy link can demux to a channel that
  // does not exist; those events must be counted, not silently dropped.
  core::EventStream merged;
  merged.add(0.001, 3, 1);
  merged.add(0.002, 4, 7);  // only 2 channels exist
  merged.add(0.003, 5, 0);
  uwb::AerStats stats;
  const auto split = uwb::aer_split(merged, 2, &stats);
  EXPECT_EQ(stats.invalid_address, 1u);
  EXPECT_EQ(stats.sent, 2u);
  ASSERT_EQ(split.size(), 2u);
  EXPECT_EQ(split[0].size(), 1u);
  EXPECT_EQ(split[1].size(), 1u);
}

TEST(EventStream, HelpersBehave) {
  core::EventStream ev;
  ev.add(0.3, 1, 2);
  ev.add(0.1, 2, 1);
  EXPECT_FALSE(ev.is_time_sorted());
  ev.sort_by_time();
  EXPECT_TRUE(ev.is_time_sorted());
  EXPECT_EQ(ev.count_in(0.0, 0.2), 1u);
  EXPECT_DOUBLE_EQ(ev.mean_rate_hz(2.0), 1.0);
  const auto ch1 = ev.channel_slice(1);
  ASSERT_EQ(ch1.size(), 1u);
  EXPECT_DOUBLE_EQ(ch1[0].time_s, 0.1);
}

// ------------------------------------------- near-sorted stable sorting

std::uint64_t bits(Real x) { return std::bit_cast<std::uint64_t>(x); }

/// Time instants to sort: AER frames abutting at 1 us (a frame's last slot
/// and the next marker share a nominal instant) plus Gaussian jitter, and
/// the degenerate layouts.
std::vector<std::vector<Real>> sort_inputs() {
  std::vector<std::vector<Real>> out;
  for (const Real jitter : {0.0, 50e-12, 300e-9, 1e-3}) {
    dsp::Rng rng(31);
    std::vector<Real> t;
    for (int frame = 0; frame < 400; ++frame) {
      for (int slot = 0; slot <= 10; slot += 1 + frame % 3) {
        t.push_back(1e-6 * frame + 1e-7 * slot + jitter * rng.gaussian_bm());
      }
    }
    out.push_back(t);
  }
  // Jitter on a coarse grid: equal times with larger ones in between, so
  // an insertion that passed an equal element would show.
  auto quantized = out[2];
  for (Real& t : quantized) t = std::round(t / 2e-7) * 2e-7;
  out.push_back(quantized);
  out.push_back(std::vector<Real>(500, 0.25));  // all equal
  std::vector<Real> reverse(3000);
  for (std::size_t i = 0; i < reverse.size(); ++i) {
    reverse[i] = static_cast<Real>(reverse.size() - i);  // budget fallback
  }
  out.push_back(reverse);
  out.push_back({});
  out.push_back({1.0});
  return out;
}

TEST(NearSortedSort, PulseTrainEqualsStableSort) {
  for (const auto& times : sort_inputs()) {
    uwb::PulseTrain train;
    for (std::size_t i = 0; i < times.size(); ++i) {
      train.add(uwb::PulseEmission{times[i], 0.01 * static_cast<Real>(i % 7),
                                   static_cast<std::uint32_t>(i),
                                   i % 11 == 0});
    }
    std::vector<uwb::PulseEmission> want = train.pulses();
    std::stable_sort(want.begin(), want.end(),
                     [](const uwb::PulseEmission& a,
                        const uwb::PulseEmission& b) {
                       return a.time_s < b.time_s;
                     });
    train.sort_by_time();
    const auto& got = train.pulses();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(bits(got[i].time_s), bits(want[i].time_s)) << i;
      ASSERT_EQ(bits(got[i].amplitude_v), bits(want[i].amplitude_v)) << i;
      ASSERT_EQ(got[i].packet_id, want[i].packet_id) << i;
      ASSERT_EQ(got[i].is_marker, want[i].is_marker) << i;
    }
  }
}

TEST(NearSortedSort, EventStreamEqualsStableSort) {
  for (const auto& times : sort_inputs()) {
    core::EventStream ev;
    for (std::size_t i = 0; i < times.size(); ++i) {
      ev.add(times[i], static_cast<std::uint8_t>(i % 16),
             static_cast<std::uint16_t>(i));
    }
    std::vector<core::Event> want = ev.events();
    std::stable_sort(want.begin(), want.end(),
                     [](const core::Event& a, const core::Event& b) {
                       return a.time_s < b.time_s;
                     });
    ev.sort_by_time();
    ASSERT_EQ(ev.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(bits(ev[i].time_s), bits(want[i].time_s)) << i;
      ASSERT_EQ(ev[i].vth_code, want[i].vth_code) << i;
      ASSERT_EQ(ev[i].channel, want[i].channel) << i;
    }
  }
}

// aer_merge sorts each channel run only when needed and merges the runs;
// the arbitrated output must equal the oracle's gather + one stable sort
// + the recurrence, over random channel sets with cross-channel time ties
// and one unsorted channel.
TEST(Aer, RunMergeEqualsGatherAndStableSort) {
  dsp::Rng rng(2718);
  for (int trial = 0; trial < 60; ++trial) {
    const auto num_channels = static_cast<std::size_t>(rng.integer(1, 40));
    const auto unsorted = static_cast<std::size_t>(
        rng.integer(0, num_channels - 1));
    std::vector<core::EventStream> chans(num_channels);
    for (std::size_t c = 0; c < num_channels; ++c) {
      const auto n = rng.integer(0, 120);
      Real t = 0.0;
      for (std::uint64_t i = 0; i < n; ++i) {
        // A coarse time grid makes cross-channel ties common.
        t += 1e-4 * static_cast<Real>(rng.integer(0, 3));
        const Real at =
            c == unsorted ? 1e-4 * static_cast<Real>(rng.integer(0, 200)) : t;
        chans[c].add(at, static_cast<std::uint8_t>(rng.integer(0, 15)));
      }
    }
    uwb::AerConfig cfg;
    cfg.address_bits = 6;
    cfg.min_spacing_s = trial % 2 == 0 ? 0.0 : 5e-5;
    cfg.max_queue_delay_s = trial % 3 == 0 ? 1e-4 : 1.0;

    const auto want = test_support::oracle_aer_merge(chans, cfg);
    uwb::AerStats stats;
    const auto got = uwb::aer_merge(chans, cfg, &stats);
    EXPECT_TRUE(test_support::aer_stats_bit_equal(stats, want.stats))
        << "trial " << trial;
    EXPECT_EQ(test_support::first_event_mismatch(got, want.merged), -1)
        << "trial " << trial;
  }
}

// ------------------------------------------- arbiter chunk schedules

/// Event times and watermarks share one grid, so equal grid indices give
/// bit-equal times: cross-channel ties and events exactly at a watermark.
constexpr Real kTick = 1e-4;

/// One seeded arbiter case: per-channel time-ordered streams on a coarse
/// grid (cross-channel ties), some channels empty.
struct AerCase {
  uwb::AerConfig config;
  std::vector<core::EventStream> channels;
};

AerCase make_aer_case(int index, dsp::Rng& rng) {
  AerCase c;
  // Channel count: 1, the full 2^address_bits space, or random.
  c.config.address_bits = static_cast<unsigned>(rng.integer(1, 6));
  const std::size_t space = std::size_t{1} << c.config.address_bits;
  std::size_t n_ch = 0;
  switch (index % 4) {
    case 0: n_ch = 1; break;
    case 1: n_ch = space; break;
    default: n_ch = static_cast<std::size_t>(rng.integer(1, space)); break;
  }
  // Spacing 0 (pure merge), a slot, or a long slot; budgets from 0 (any
  // wait drops) to effectively unbounded.
  const Real spacings[] = {0.0, 5e-5, 3e-4};
  const Real budgets[] = {0.0, 1e-4, 1e-3, 1.0};
  c.config.min_spacing_s = spacings[rng.integer(0, 2)];
  c.config.max_queue_delay_s = budgets[rng.integer(0, 3)];
  c.channels.resize(n_ch);
  const auto density = rng.integer(0, 3);  // 0: sparse ... 3: bursty
  for (auto& ch : c.channels) {
    if (rng.integer(0, 5) == 0) continue;  // empty channel
    const auto n = rng.integer(0, 60);
    std::int64_t tick = rng.integer(0, 10);
    for (std::uint64_t i = 0; i < n; ++i) {
      tick += static_cast<std::int64_t>(rng.integer(0, 4 - density));
      ch.add(kTick * static_cast<Real>(tick),
             static_cast<std::uint8_t>(rng.integer(0, 15)));
    }
  }
  return c;
}

/// Drives AerArbiter with random per-channel pushes and a monotone
/// watermark schedule that repeats values, goes stale, pushes empty
/// spans, and pushes past the watermark; ends with release_below(+inf).
uwb::AerStats run_schedule(const AerCase& c, dsp::Rng& rng,
                           core::EventStream& out) {
  uwb::AerArbiter arbiter(c.config, c.channels.size());
  std::vector<std::size_t> pos(c.channels.size(), 0);
  const auto push_below = [&](std::size_t ch, Real limit) {
    const auto& ev = c.channels[ch].events();
    std::size_t end = pos[ch];
    while (end < ev.size() && ev[end].time_s < limit) ++end;
    arbiter.push(ch, std::span<const core::Event>(ev.data() + pos[ch],
                                                  end - pos[ch]));
    pos[ch] = end;
  };
  std::int64_t released = 0;  // highest watermark so far, in ticks
  std::int64_t last = 0;
  const auto steps = rng.integer(0, 12);
  for (std::uint64_t s = 0; s < steps; ++s) {
    std::int64_t w = last;
    switch (rng.integer(0, 5)) {
      case 0: break;  // repeat
      case 1: w -= static_cast<std::int64_t>(rng.integer(1, 5)); break;
      default: w += static_cast<std::int64_t>(rng.integer(0, 40)); break;
    }
    last = w;
    released = std::max(released, w);
    for (std::size_t ch = 0; ch < c.channels.size(); ++ch) {
      // Every event below the release point must be queued before the
      // release; a channel may push further ahead, stop exactly at the
      // watermark (its events at w stay unpushed), or push nothing new.
      const auto ahead =
          rng.integer(0, 2) == 0
              ? 0
              : static_cast<std::int64_t>(rng.integer(0, 8));
      push_below(ch, kTick * static_cast<Real>(released + ahead));
    }
    arbiter.release_below(kTick * static_cast<Real>(w), out);
  }
  for (std::size_t ch = 0; ch < c.channels.size(); ++ch) {
    push_below(ch, std::numeric_limits<Real>::infinity());
  }
  arbiter.release_below(std::numeric_limits<Real>::infinity(), out);
  return arbiter.stats();
}

TEST(AerArbiterOracle, AnyChunkScheduleEqualsWholeStreamOracle) {
  dsp::Rng rng(16180);
  std::size_t drops = 0;
  std::size_t ties = 0;
  for (int index = 0; index < 240; ++index) {
    const AerCase c = make_aer_case(index, rng);
    const auto want = test_support::oracle_aer_merge(c.channels, c.config);
    drops += want.stats.dropped;
    for (std::size_t i = 1; i < want.merged.size(); ++i) {
      ties += want.merged[i].time_s == want.merged[i - 1].time_s ? 1 : 0;
    }

    core::EventStream got;
    const uwb::AerStats stats = run_schedule(c, rng, got);
    ASSERT_TRUE(test_support::aer_stats_bit_equal(stats, want.stats))
        << "case " << index << ": sent " << stats.sent << " vs "
        << want.stats.sent << ", dropped " << stats.dropped << " vs "
        << want.stats.dropped;
    ASSERT_EQ(test_support::first_event_mismatch(got, want.merged), -1)
        << "case " << index;

    // The batch path is the same arbiter as one whole-stream chunk.
    uwb::AerStats batch_stats;
    const auto batch = uwb::aer_merge(c.channels, c.config, &batch_stats);
    ASSERT_TRUE(test_support::aer_stats_bit_equal(batch_stats, want.stats))
        << "case " << index;
    ASSERT_EQ(test_support::first_event_mismatch(batch, want.merged), -1)
        << "case " << index;

    // Demux against the oracle split, with address-field bit errors.
    const auto n_ch = static_cast<unsigned>(c.channels.size());
    core::EventStream corrupted;
    for (const auto& e : want.merged.events()) {
      const bool flip = rng.integer(0, 9) == 0;
      corrupted.add(e.time_s, e.vth_code,
                    flip ? static_cast<std::uint16_t>(e.channel + n_ch)
                         : e.channel);
    }
    uwb::AerStats split_stats;
    uwb::AerStats oracle_split_stats;
    const auto split = uwb::aer_split(corrupted, n_ch, &split_stats);
    const auto oracle_split =
        test_support::oracle_aer_split(corrupted, n_ch, oracle_split_stats);
    ASSERT_TRUE(
        test_support::aer_stats_bit_equal(split_stats, oracle_split_stats))
        << "case " << index;
    for (unsigned ch = 0; ch < n_ch; ++ch) {
      ASSERT_EQ(test_support::first_event_mismatch(split[ch],
                                                   oracle_split[ch]),
                -1)
          << "case " << index << " channel " << ch;
    }
  }
  // The seeded grid really exercises the drop branch and the tie order.
  EXPECT_GT(drops, 100u);
  EXPECT_GT(ties, 100u);
}

TEST(AerArbiterOracle, UnsortedRunsThroughAerMergeEqualOracle) {
  // aer_merge stable-sorts a channel whose run is out of order; the
  // oracle's single stable sort of the concatenation must agree.
  dsp::Rng rng(31415);
  for (int index = 0; index < 40; ++index) {
    AerCase c = make_aer_case(index, rng);
    for (auto& ch : c.channels) {
      if (ch.size() < 2 || rng.integer(0, 1) == 0) continue;
      std::vector<core::Event> ev(ch.events().begin(), ch.events().end());
      std::reverse(ev.begin(), ev.end());
      ch = core::EventStream(std::move(ev));
    }
    const auto want = test_support::oracle_aer_merge(c.channels, c.config);
    uwb::AerStats stats;
    const auto got = uwb::aer_merge(c.channels, c.config, &stats);
    ASSERT_TRUE(test_support::aer_stats_bit_equal(stats, want.stats))
        << "case " << index;
    ASSERT_EQ(test_support::first_event_mismatch(got, want.merged), -1)
        << "case " << index;
  }
}

TEST(AerArbiterOracle, RejectsPushesThatBreakTheWatermarkPromise) {
  uwb::AerArbiter arbiter(uwb::AerConfig{}, 2);
  core::EventStream first;
  first.add(0.002, 1);
  arbiter.push(1, first.events());
  core::EventStream earlier;
  earlier.add(0.001, 2);  // before the channel's previous push
  EXPECT_THROW(arbiter.push(1, earlier.events()), std::invalid_argument);

  core::EventStream ok;
  ok.add(0.005, 1);
  arbiter.push(0, ok.events());
  core::EventStream out;
  arbiter.release_below(0.004, out);
  core::EventStream stale;
  stale.add(0.003, 1);  // below the released watermark
  EXPECT_THROW(arbiter.push(1, stale.events()), std::invalid_argument);
  EXPECT_THROW(arbiter.push(0, stale.events()), std::invalid_argument);
  EXPECT_THROW(arbiter.push(2, ok.events()), std::invalid_argument);
}

}  // namespace
