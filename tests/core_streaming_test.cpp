// Streaming encoders: sample-by-sample operation must be bit-identical to
// the batch encoders (the property a real-time integration relies on).
// The streaming reconstruction core: bit-identical to the independent
// whole-record oracle (tests/support/recon_oracle.hpp) for any chunking,
// any watermark schedule and any config, in O(window) memory, and pinned
// to golden envelope hashes on two fixed scenarios.

#include "core/streaming.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <limits>
#include <numbers>
#include <span>
#include <vector>

#include "config/factory.hpp"
#include "config/scenario.hpp"
#include "core/datc_encoder.hpp"
#include "core/event_arena.hpp"
#include "core/rate_calibration.hpp"
#include "core/reconstruct.hpp"
#include "core/streaming_reconstruct.hpp"
#include "dsp/rng.hpp"
#include "emg/dataset.hpp"
#include "emg/evaluation.hpp"
#include "runtime/session.hpp"
#include "support/recon_oracle.hpp"
#include "uwb/link_pipeline.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

dsp::TimeSeries test_signal(std::uint64_t seed, Real duration_s = 4.0) {
  emg::RecordingSpec spec;
  spec.seed = seed;
  spec.gain_v = 0.35;
  spec.duration_s = duration_s;
  return emg::make_recording(spec).emg_v;
}

/// The first n samples of `sig`.
dsp::TimeSeries prefix(const dsp::TimeSeries& sig, std::size_t n) {
  const auto& x = sig.samples();
  return dsp::TimeSeries(std::vector<Real>(x.begin(), x.begin() + n),
                         sig.sample_rate_hz());
}

class StreamingEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamingEquivalenceTest, DatcStreamingMatchesBatch) {
  // 10000..10004 samples at 2.5 kHz against the 2 kHz clock: every
  // residue of the record length mod 5, i.e. every position of the last
  // clock instant relative to the last sample.
  const auto full = test_signal(GetParam(), 4.01);
  ASSERT_GE(full.size(), 10004u);
  const core::DatcEncoderConfig cfg;
  for (std::size_t n = 10000; n < 10005; ++n) {
    const auto sig = prefix(full, n);
    const auto batch = core::encode_datc(sig, cfg);

    core::EventStream streamed;
    core::StreamingDatcEncoder enc(cfg, sig.sample_rate_hz(),
                                   [&streamed](const core::Event& e) {
                                     streamed.add(e.time_s, e.vth_code);
                                   });
    enc.push_block(sig.view());

    ASSERT_EQ(streamed.size(), batch.events.size()) << "n=" << n;
    for (std::size_t i = 0; i < streamed.size(); ++i) {
      EXPECT_EQ(streamed[i].time_s, batch.events[i].time_s)
          << "n=" << n << " i=" << i;
      EXPECT_EQ(streamed[i].vth_code, batch.events[i].vth_code)
          << "n=" << n << " i=" << i;
    }
    EXPECT_EQ(enc.cycles(), batch.num_cycles) << "n=" << n;
    EXPECT_EQ(enc.events_emitted(), batch.events.size()) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingEquivalenceTest,
                         ::testing::Values(3, 17, 42, 99));

TEST(StreamingDatc, SampleBySampleEqualsBlock) {
  const auto sig = test_signal(5, 2.0);
  const core::DatcEncoderConfig cfg;
  core::EventStream a;
  core::StreamingDatcEncoder ea(cfg, sig.sample_rate_hz(),
                                [&a](const core::Event& e) {
                                  a.add(e.time_s, e.vth_code);
                                });
  for (const Real v : sig.samples()) ea.push(v);

  core::EventStream b;
  core::StreamingDatcEncoder eb(cfg, sig.sample_rate_hz(),
                                [&b](const core::Event& e) {
                                  b.add(e.time_s, e.vth_code);
                                });
  eb.push_block(sig.view());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].time_s, b[i].time_s);
  }
}

TEST(StreamingDatc, ResetRestartsCleanly) {
  const auto sig = test_signal(7, 2.0);
  const core::DatcEncoderConfig cfg;
  core::EventStream first;
  core::EventStream second;
  core::EventStream* target = &first;
  core::StreamingDatcEncoder enc(cfg, sig.sample_rate_hz(),
                                 [&target](const core::Event& e) {
                                   target->add(e.time_s, e.vth_code);
                                 });
  enc.push_block(sig.view());
  enc.reset();
  EXPECT_EQ(enc.cycles(), 0u);
  target = &second;
  enc.push_block(sig.view());
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_DOUBLE_EQ(first[i].time_s, second[i].time_s);
    EXPECT_EQ(first[i].vth_code, second[i].vth_code);
  }
}

TEST(StreamingDatc, Validation) {
  const core::DatcEncoderConfig cfg;
  EXPECT_THROW(core::StreamingDatcEncoder(cfg, 0.0, [](const core::Event&) {}),
               std::invalid_argument);
}

TEST(StreamingDatc, NonFiniteRatesThrow) {
  // An infinite clock puts every clock instant at t = 0, so an encoder
  // that accepted it would never leave its first push_block().
  constexpr Real kInf = std::numeric_limits<Real>::infinity();
  const auto sink = [](const core::Event&) {};
  core::DatcEncoderConfig cfg;
  cfg.clock_hz = kInf;
  EXPECT_THROW(core::StreamingDatcEncoder(cfg, 2500.0, sink),
               std::invalid_argument);
  cfg.clock_hz = std::numeric_limits<Real>::quiet_NaN();
  EXPECT_THROW(core::StreamingDatcEncoder(cfg, 2500.0, sink),
               std::invalid_argument);
  EXPECT_THROW(core::StreamingDatcEncoder(core::DatcEncoderConfig{}, kInf,
                                          sink),
               std::invalid_argument);
}

TEST(StreamingDatc, ReferenceRejectsNonFiniteRates) {
  core::DatcEncoderConfig cfg;
  cfg.clock_hz = std::numeric_limits<Real>::infinity();
  const dsp::TimeSeries sig(std::vector<Real>{0.1, 0.2, 0.3}, 2500.0);
  EXPECT_THROW((void)core::encode_datc(sig, cfg), std::invalid_argument);
  EXPECT_THROW((void)core::encode_datc_events(sig, cfg),
               std::invalid_argument);
  const dsp::TimeSeries fast(std::vector<Real>{0.1, 0.2, 0.3},
                             std::numeric_limits<Real>::infinity());
  EXPECT_THROW((void)core::encode_datc(fast, core::DatcEncoderConfig{}),
               std::invalid_argument);
}

class StreamingAtcTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamingAtcTest, MatchesBatch) {
  const auto sig = test_signal(GetParam());
  core::AtcEncoderConfig cfg;
  cfg.threshold_v = 0.25;
  cfg.hysteresis_v = 0.02;
  const auto batch = core::encode_atc(sig, cfg);

  core::EventStream streamed;
  core::StreamingAtcEncoder enc(cfg, sig.sample_rate_hz(),
                                [&streamed](const core::Event& e) {
                                  streamed.add(e.time_s);
                                });
  enc.push_block(sig.view());
  ASSERT_EQ(streamed.size(), batch.events.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].time_s, batch.events[i].time_s) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingAtcTest,
                         ::testing::Values(2, 11, 23));

TEST(StreamingAtc, SineEventTimes) {
  // 5 Hz rectified sine, threshold 0.5: two upward crossings per period.
  constexpr Real kTwoPi = 2.0 * std::numbers::pi_v<Real>;
  core::AtcEncoderConfig cfg;
  cfg.threshold_v = 0.5;
  std::vector<Real> times;
  core::StreamingAtcEncoder enc(cfg, 1000.0,
                                [&times](const core::Event& e) {
                                  times.push_back(e.time_s);
                                });
  for (int i = 0; i < 1000; ++i) {
    enc.push(std::sin(kTwoPi * 5.0 * static_cast<Real>(i) / 1000.0));
  }
  EXPECT_EQ(times.size(), 10u);
  // First |sin| crossing of 0.5 at asin(0.5)/(2 pi 5) = 1/60 s.
  EXPECT_NEAR(times.front(), 1.0 / 60.0, 1e-3);
}

// ------------------------------------------------ reconstruction core

core::CalibrationPtr recon_calibration() {
  static const core::CalibrationPtr cal = [] {
    core::RateCalibrationConfig c;
    c.count_fs_hz = 2000.0;
    c.num_samples = 100000;
    return std::make_shared<core::RateCalibration>(c);
  }();
  return cal;
}

/// Decoded events of a real channel: encode, then a lossy body-area link.
core::EventStream decoded_events(std::uint64_t seed, Real duration_s) {
  const emg::EvalConfig eval;
  core::EventArena arena;
  core::encode_datc_events(test_signal(seed, duration_s),
                           emg::datc_encoder_config(eval), arena);
  uwb::LinkConfig link;
  link.seed = seed;
  link.channel.distance_m = 0.6;
  link.channel.ref_loss_db = 30.0;
  link.channel.erasure_prob = 0.05;
  return uwb::run_datc_over_link(arena.take_stream(), link,
                                 eval.dtc.dac_bits, true)
      .events_rx;
}

/// Drives the core the way a session does: per chunk of `chunk` output
/// samples, push the events below the chunk's end, advance the watermark
/// there and drain. chunk 0 = push everything, then finish.
std::vector<Real> stream_in_chunks(const core::ReconstructionConfig& rc,
                                   std::span<const core::Event> ev,
                                   Real duration_s, std::size_t chunk) {
  core::StreamingDatcReconstructor recon(rc, recon_calibration());
  std::vector<Real> out;
  std::size_t pushed = 0;
  if (chunk > 0) {
    for (std::size_t k = chunk;; k += chunk) {
      const Real wm =
          std::min(static_cast<Real>(k) / rc.output_fs_hz, duration_s);
      std::size_t end = pushed;
      while (end < ev.size() && ev[end].time_s < wm) ++end;
      recon.push_events(ev.subspan(pushed, end - pushed));
      pushed = end;
      recon.advance_to(wm);
      recon.drain(out);
      if (wm >= duration_s) break;
    }
  }
  recon.push_events(ev.subspan(pushed));
  recon.finish(duration_s);
  recon.drain(out);
  EXPECT_EQ(recon.emitted(), out.size());
  return out;
}

class ReconOracleChunkTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ReconOracleChunkTest, StreamingCoreEqualsOracle) {
  const core::ReconstructionConfig rc;
  for (const std::uint64_t seed : {301u, 302u}) {
    const auto ev = decoded_events(seed, 3.0);
    ASSERT_GT(ev.size(), 50u);
    const auto want = test_support::oracle_rate_inversion(
        ev.events(), 3.0, rc, *recon_calibration());
    const auto got = stream_in_chunks(rc, ev.events(), 3.0, GetParam());
    EXPECT_EQ(test_support::first_bit_difference(want, got), -1)
        << "seed " << seed << " chunk " << GetParam();
  }
}

// 0 = whole record in one chunk.
INSTANTIATE_TEST_SUITE_P(ChunkSizes, ReconOracleChunkTest,
                         ::testing::Values(1, 7, 64, 4096, 0));

TEST(ReconOracle, BatchAdapterEqualsOracleInBothModes) {
  const core::ReconstructionConfig rc;
  const auto ev = decoded_events(303, 4.0);
  const auto& cal = *recon_calibration();
  const core::DatcReconstructor rate(rc, recon_calibration());
  EXPECT_EQ(test_support::first_bit_difference(
                test_support::oracle_rate_inversion(ev.events(), 4.0, rc, cal),
                rate.reconstruct(ev, 4.0)),
            -1);
  const core::DatcReconstructor duty(rc, recon_calibration(),
                                     core::DatcDecodeMode::kCodeDuty);
  EXPECT_EQ(test_support::first_bit_difference(
                test_support::oracle_code_duty(ev.events(), 4.0, rc, cal),
                duty.reconstruct(ev, 4.0)),
            -1);
}

/// Sorted event times mixing uniform draws with the instants the
/// half-open windows and the vth hold are sensitive to: exact grid
/// instants, exact window edges t_n -/+ window/2, t = 0, duplicates, and a
/// few events past the record end.
std::vector<core::Event> edge_heavy_events(dsp::Rng& rng, Real duration_s,
                                           const core::ReconstructionConfig& rc) {
  const Real fs = rc.output_fs_hz;
  const Real half = rc.window_s / 2.0;
  const auto n_grid = static_cast<std::uint64_t>(duration_s * fs);
  std::vector<Real> times;
  const std::uint64_t count = rng.integer(0, 400);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto n = static_cast<Real>(rng.integer(0, n_grid));
    Real t = 0.0;
    switch (rng.integer(0, 6)) {
      case 0: t = n / fs; break;
      case 1: t = n / fs - half; break;
      case 2: t = n / fs + half; break;
      case 3: t = times.empty() ? 0.0 : times.back(); break;
      case 4: t = duration_s + rng.uniform(0.0, rc.window_s); break;
      default: t = rng.uniform(0.0, duration_s); break;
    }
    times.push_back(std::max(t, 0.0));
  }
  std::sort(times.begin(), times.end());
  std::vector<core::Event> ev;
  for (const Real t : times) {
    ev.push_back(core::Event{t, static_cast<std::uint8_t>(rng.integer(0, 15)),
                             0});
  }
  return ev;
}

/// A watermark the schedule may advance to: anything up to the duration,
/// with extra weight on event instants, window edges and the end itself.
Real next_watermark(dsp::Rng& rng, Real wm, Real duration_s,
                    const std::vector<core::Event>& ev,
                    const core::ReconstructionConfig& rc) {
  const Real fs = rc.output_fs_hz;
  switch (rng.integer(0, 7)) {
    case 0: return wm;                                // repeated watermark
    case 1: return wm - rng.uniform(0.0, 0.1);        // stale (ignored)
    case 2: return duration_s;
    case 3:
      if (!ev.empty()) return ev[rng.integer(0, ev.size() - 1)].time_s;
      return wm;
    case 4:
      return static_cast<Real>(rng.integer(0, static_cast<std::uint64_t>(
                                                  duration_s * fs))) /
                 fs +
             rc.window_s / 2.0;
    case 5: return wm + 1.0 / fs;                     // single-sample step
    default: return wm + rng.uniform(0.0, 0.2);
  }
}

TEST(ReconOracle, RandomChunkSchedulesMatchOracle) {
  struct Cfg {
    Real window_s;
    Real fs;
  };
  // Interior widths that are bitwise window_s (memo hits) and ones that
  // mostly are not (0.1 s @ 3 kHz), odd and even sample windows, a
  // non-integer rate, and the one-sample window.
  const Cfg cfgs[] = {{0.25, 2500.0}, {0.1, 3000.0}, {0.05, 1000.0},
                      {0.3, 777.7},   {0.2, 10.0},   {0.0004, 2500.0}};
  const auto& cal = *recon_calibration();
  std::size_t cases = 0;
  for (const Cfg& cfg : cfgs) {
    core::ReconstructionConfig rc;
    rc.window_s = cfg.window_s;
    rc.output_fs_hz = cfg.fs;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      dsp::Rng rng(seed * 7919 + static_cast<std::uint64_t>(cfg.fs));
      // Off-grid durations (and, now and then, on-grid ones).
      const Real grid = static_cast<Real>(rng.integer(1, 1500));
      const Real duration =
          (grid + (rng.chance(0.2) ? 0.0 : rng.uniform(0.0, 1.0))) / cfg.fs;
      const auto ev = edge_heavy_events(rng, duration, rc);
      const std::span<const core::Event> all(ev);

      core::StreamingDatcReconstructor recon(rc, recon_calibration());
      std::vector<Real> got;
      std::size_t pushed = 0;
      Real wm = 0.0;
      const auto push_some = [&](std::size_t k) {
        k = std::min(k, ev.size() - pushed);
        recon.push_events(all.subspan(pushed, k));
        pushed += k;
      };
      while (wm < duration && rng.integer(0, 40) != 0) {
        switch (rng.integer(0, 3)) {
          case 0: push_some(0); break;  // empty push
          case 1: push_some(1); break;
          case 2: push_some(rng.integer(0, 30)); break;
          default: {
            const Real next = std::min(
                next_watermark(rng, wm, duration, ev, rc), duration);
            // Keep the promise: every event below the watermark pushed,
            // in 1-event slices now and then.
            while (pushed < ev.size() && ev[pushed].time_s < next) {
              push_some(rng.chance(0.5) ? 1 : rng.integer(1, 8));
            }
            recon.advance_to(next);
            wm = std::max(wm, next);
            // Latency bound: every sample at least latency_s() behind
            // the watermark is out (one sample of slack for rounding).
            const Real lag = (wm - recon.latency_s()) * cfg.fs;
            if (lag >= 1.0) {
              EXPECT_GE(recon.emitted(), static_cast<std::size_t>(lag));
            }
            if (rng.chance(0.7)) recon.drain(got);
          }
        }
      }
      push_some(ev.size());
      recon.finish(duration);
      recon.drain(got);

      const auto want =
          test_support::oracle_rate_inversion(all, duration, rc, cal);
      ASSERT_EQ(test_support::first_bit_difference(want, got), -1)
          << "window " << cfg.window_s << " fs " << cfg.fs << " seed "
          << seed << " duration " << duration << " events " << ev.size();
      ++cases;
    }
  }
  EXPECT_EQ(cases, 240u);
}

TEST(ReconOracle, WorkingSetStaysBoundedOverLongStreams) {
  // 600 s at the default 0.25 s / 2.5 kHz config in 64-sample chunks,
  // with a slowly modulated 50..350 Hz event rate.
  const core::ReconstructionConfig rc;
  core::StreamingDatcReconstructor recon(rc, recon_calibration());
  dsp::Rng rng(600);
  constexpr Real kDuration = 600.0;
  constexpr std::size_t kChunk = 64;
  constexpr std::size_t kFixedBudget = 16 * 1024;
  std::vector<core::Event> pending;
  std::vector<Real> out;
  Real next_event = 0.0;
  std::size_t drained = 0;
  std::size_t peak_retained = 0;
  for (std::size_t k = kChunk;; k += kChunk) {
    const Real wm = std::min(static_cast<Real>(k) / rc.output_fs_hz, kDuration);
    pending.clear();
    while (next_event < wm) {
      pending.push_back(core::Event{
          next_event, static_cast<std::uint8_t>(rng.integer(1, 15)), 0});
      const Real rate = 200.0 + 150.0 * std::sin(next_event / 7.0);
      next_event += -std::log(1.0 - rng.canonical()) / rate;
    }
    recon.push_events(pending);
    if (wm >= kDuration) {
      recon.finish(kDuration);
    } else {
      recon.advance_to(wm);
    }
    out.clear();
    recon.drain(out);
    drained += out.size();
    peak_retained = std::max(peak_retained, recon.retained_events());
    ASSERT_LE(recon.buffered_bytes(),
              kFixedBudget + recon.retained_events() * sizeof(core::Event))
        << "at t = " << wm << " s";
    if (wm >= kDuration) break;
  }
  EXPECT_EQ(drained, static_cast<std::size_t>(kDuration * rc.output_fs_hz));
  // Retained events cover about one window plus one chunk: O(window).
  EXPECT_LT(peak_retained, 300u);
}

TEST(ReconOracle, RejectsContractViolations) {
  const core::ReconstructionConfig rc;
  core::StreamingDatcReconstructor recon(rc, recon_calibration());
  const core::Event later{0.5, 3, 0};
  const core::Event earlier{0.25, 3, 0};
  recon.push_events({&later, 1});
  EXPECT_THROW(recon.push_events({&earlier, 1}), std::invalid_argument);
  EXPECT_THROW(recon.advance_to(std::numeric_limits<Real>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(recon.finish(0.0), std::invalid_argument);
  recon.finish(1.0);
  EXPECT_EQ(recon.emitted(), 2500u);
  EXPECT_THROW(recon.push_events({&later, 1}), std::invalid_argument);
}

// ------------------------------------------------------- golden envelopes
//
// FNV-1a of the envelope bits on two fixed scenarios, captured before the
// batch and streaming reconstructors were merged into one core. Any change
// to a reconstructed bit — in the session path or the batch adapter —
// fails here, whatever the implementation's own parity tests say.

TEST(ReconGolden, PaperBaselinePerChannel) {
  auto spec = config::make_preset("paper-baseline");
  config::set_scenario_key(spec, "source.duration_s", "4");
  const config::PipelineFactory factory(spec);
  const auto rec = factory.make_recording(0);
  auto cfg = factory.session_config();
  cfg.keep_rx_events = true;
  runtime::StreamingSession session(cfg, 0);
  const auto& x = rec.emg_v.samples();
  std::vector<Real> arv;
  for (std::size_t p = 0; p < x.size(); p += 64) {
    session.push_chunk(std::span<const Real>(x).subspan(
        p, std::min<std::size_t>(64, x.size() - p)));
    session.drain_arv(arv);
  }
  session.finish();
  session.drain_arv(arv);
  const core::DatcReconstructor batch(cfg.recon, cfg.calibration);
  const auto env = batch.reconstruct(session.rx_events(),
                                     rec.emg_v.duration_s());

  constexpr std::uint64_t kGolden = 0x2035a2c3608f163dull;
  ASSERT_EQ(arv.size(), 10000u);
  EXPECT_EQ(session.rx_events().size(), 587u);
  EXPECT_EQ(test_support::fnv1a_bits(arv), kGolden);
  EXPECT_EQ(test_support::fnv1a_bits(env), kGolden);
  EXPECT_EQ(test_support::first_bit_difference(
                test_support::oracle_rate_inversion(
                    session.rx_events().events(), rec.emg_v.duration_s(),
                    cfg.recon, *cfg.calibration),
                arv),
            -1);
}

TEST(ReconGolden, SharedAer8Channels) {
  auto spec = config::make_preset("shared-aer-8ch");
  config::set_scenario_key(spec, "source.duration_s", "3");
  const config::PipelineFactory factory(spec);
  const auto recs = factory.make_recordings();
  auto cfg = factory.session_config();
  cfg.keep_rx_events = true;
  runtime::SharedAerStreamingSession session(cfg, factory.shared_config(),
                                             recs.size());
  const std::size_t n = recs[0].emg_v.size();
  std::vector<Real> round;
  for (std::size_t p = 0; p < n; p += 64) {
    const std::size_t k = std::min<std::size_t>(64, n - p);
    round.clear();
    for (const auto& r : recs) {
      const auto s = std::span<const Real>(r.emg_v.samples()).subspan(p, k);
      round.insert(round.end(), s.begin(), s.end());
    }
    session.push_chunk(round);
  }
  session.finish();

  const core::DatcReconstructor batch(cfg.recon, cfg.calibration);
  std::uint64_t h_stream = 14695981039346656037ull;
  std::uint64_t h_batch = h_stream;
  std::size_t samples = 0;
  std::size_t events = 0;
  std::vector<core::EventStream> rx;
  std::vector<std::vector<Real>> arvs;
  for (std::size_t c = 0; c < recs.size(); ++c) {
    std::vector<Real> arv;
    session.drain_arv(c, arv);
    samples += arv.size();
    events += session.rx_events(c).size();
    h_stream = test_support::fnv1a_bits(arv, h_stream);
    h_batch = test_support::fnv1a_bits(
        batch.reconstruct(session.rx_events(c), recs[c].emg_v.duration_s()),
        h_batch);
    rx.push_back(session.rx_events(c));
    arvs.push_back(std::move(arv));
  }
  constexpr std::uint64_t kGolden = 0xd6f86d0c2764d2aeull;
  EXPECT_EQ(samples, 60000u);
  EXPECT_EQ(events, 4958u);
  EXPECT_EQ(h_stream, kGolden);
  EXPECT_EQ(h_batch, kGolden);
  EXPECT_EQ(test_support::first_oracle_mismatch(rx, arvs,
                                                recs[0].emg_v.duration_s(),
                                                cfg.recon, *cfg.calibration),
            -1);
}

}  // namespace
