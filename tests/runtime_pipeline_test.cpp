// The multi-channel encoding engine: parallel output must be bit-identical
// to serial output, and the fast per-channel pipeline must be bit-identical
// to the reference sim::EndToEnd path for the same per-channel seeds.

#include <algorithm>
#include <atomic>
#include <future>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/datc_encoder.hpp"
#include "core/event_arena.hpp"
#include "dsp/stats.hpp"
#include "runtime/pipeline_runner.hpp"
#include "sim/end_to_end.hpp"
#include "runtime/thread_pool.hpp"
#include "uwb/link_pipeline.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

std::vector<emg::Recording> make_channels(std::size_t n, Real duration_s) {
  std::vector<emg::Recording> recs;
  recs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    emg::RecordingSpec spec;
    spec.seed = 1000 + i;
    spec.duration_s = duration_s;
    // Spread the per-channel gains like the dataset's subject population.
    spec.gain_v = 0.2 + 0.05 * static_cast<Real>(i);
    spec.name = "ch" + std::to_string(i);
    recs.push_back(emg::make_recording(spec));
  }
  return recs;
}

TEST(ThreadPool, RunsAllTasks) {
  runtime::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndex) {
  runtime::ThreadPool pool(3);
  std::vector<int> hits(257, 0);
  runtime::parallel_for(pool, hits.size(),
                        [&hits](std::size_t i) { hits[i] = 1; });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ThreadPool, PropagatesTaskException) {
  runtime::ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The pool stays usable after an error.
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, FrontLaneRunsAheadOfQueuedTasks) {
  runtime::ThreadPool pool(1);
  std::promise<void> started;
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::vector<std::string> order;  // one worker: no lock needed
  pool.submit([&started, open, &order] {
    started.set_value();
    open.wait();
    order.push_back("busy");
  });
  started.get_future().wait();
  // The worker is busy: everything below queues behind it.
  for (int i = 0; i < 3; ++i) {
    pool.submit([&order, i] { order.push_back("back" + std::to_string(i)); });
  }
  pool.submit_front([&order] { order.push_back("front0"); });
  pool.submit_front([&pool, &order] {
    order.push_back("front1");
    // Submitted by a running task, still counted by wait_idle.
    pool.submit_front([&order] { order.push_back("nested"); });
  });
  gate.set_value();
  pool.wait_idle();
  const std::vector<std::string> want = {"busy",  "front1", "nested",
                                         "front0", "back0", "back1",
                                         "back2"};
  EXPECT_EQ(order, want);
}

TEST(ThreadPool, FrontLaneExceptionIsRethrown) {
  runtime::ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.submit_front([] { throw std::runtime_error("front boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(counter.load(), 1);
  pool.submit_front([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 2);
}

TEST(PipelineRunner, ParallelIsBitIdenticalToSerial) {
  const auto recs = make_channels(6, 2.0);
  runtime::RunnerConfig cfg;
  cfg.jobs = 4;
  cfg.keep_rx_events = true;
  cfg.link.seed = 7;
  runtime::PipelineRunner runner(cfg);

  const auto serial = runner.run_serial(recs);
  const auto parallel = runner.run(recs);

  ASSERT_EQ(serial.channels.size(), parallel.channels.size());
  for (std::size_t i = 0; i < serial.channels.size(); ++i) {
    const auto& s = serial.channels[i];
    const auto& p = parallel.channels[i];
    EXPECT_EQ(s.channel, p.channel);
    EXPECT_EQ(s.events_tx, p.events_tx) << i;
    EXPECT_EQ(s.pulses_tx, p.pulses_tx) << i;
    EXPECT_EQ(s.pulses_erased, p.pulses_erased) << i;
    EXPECT_EQ(s.events_rx, p.events_rx) << i;
    // Exact equality: parallel channels draw from private Rngs.
    EXPECT_EQ(s.tx_correlation_pct, p.tx_correlation_pct) << i;
    EXPECT_EQ(s.rx_correlation_pct, p.rx_correlation_pct) << i;
    ASSERT_EQ(s.rx_events.size(), p.rx_events.size()) << i;
    for (std::size_t k = 0; k < s.rx_events.size(); ++k) {
      EXPECT_EQ(s.rx_events[k].time_s, p.rx_events[k].time_s);
      EXPECT_EQ(s.rx_events[k].vth_code, p.rx_events[k].vth_code);
    }
  }
  EXPECT_GT(parallel.throughput_x_realtime(), 0.0);
  EXPECT_EQ(parallel.emg_seconds_processed, 12.0);
}

TEST(PipelineRunner, FastPathMatchesReferenceEndToEnd) {
  // The engine's per-channel pipeline (block encode + cached-detection
  // receiver) must reproduce the seed reference path exactly: same encoder
  // arithmetic, same Rng draw sequence, same scores.
  const auto recs = make_channels(3, 2.0);
  runtime::RunnerConfig cfg;
  cfg.jobs = 2;
  cfg.link.seed = 42;
  runtime::PipelineRunner runner(cfg);
  const auto engine = runner.run(recs);

  const sim::EndToEnd reference(cfg.eval, cfg.link);
  const auto ref = reference.run_datc_batch(recs, /*jobs=*/1);

  ASSERT_EQ(engine.channels.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(engine.channels[i].pulses_tx, ref[i].pulses_tx) << i;
    EXPECT_EQ(engine.channels[i].pulses_erased, ref[i].pulses_erased) << i;
    EXPECT_EQ(engine.channels[i].events_rx, ref[i].events_rx) << i;
    EXPECT_EQ(engine.channels[i].rx_correlation_pct,
              ref[i].rx_side.correlation_pct)
        << i;
    EXPECT_EQ(engine.channels[i].tx_correlation_pct,
              ref[i].tx_side.correlation_pct)
        << i;
  }
}

TEST(PipelineRunner, BatchApiIsJobCountInvariant) {
  const auto recs = make_channels(4, 1.5);
  const emg::EvalConfig eval;
  uwb::LinkConfig link;
  link.seed = 3;
  const sim::EndToEnd e2e(eval, link);
  const auto serial = e2e.run_datc_batch(recs, 1);
  const auto parallel = e2e.run_datc_batch(recs, 3);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].rx_side.correlation_pct,
              parallel[i].rx_side.correlation_pct)
        << i;
    EXPECT_EQ(serial[i].events_rx, parallel[i].events_rx) << i;
  }
  // Channel 0 reproduces the single-channel API exactly.
  const auto single = e2e.run_datc(recs[0]);
  EXPECT_EQ(serial[0].rx_side.correlation_pct, single.rx_side.correlation_pct);
  EXPECT_EQ(serial[0].events_rx, single.events_rx);
}

TEST(PipelineRunner, SharedAerNoiselessMatchesIdealRadio) {
  // Acceptance gate for the shared-medium mode: with a noiseless channel
  // and zero queue-delay drops, the real radio (modulate -> propagate ->
  // decode -> demux) must reproduce the arbitration-only ideal reference
  // exactly, per channel, for >= 8 contending encoders.
  const auto recs = make_channels(8, 2.0);
  runtime::RunnerConfig cfg;
  cfg.jobs = 4;
  cfg.keep_rx_events = true;
  cfg.link_mode = runtime::LinkMode::kSharedAer;
  cfg.link.seed = 11;
  cfg.link.channel = uwb::noiseless_channel();
  cfg.link.modulator.shape.amplitude_v = 0.5;
  cfg.link.detector.false_alarm_prob = 1e-9;
  cfg.shared.aer.address_bits = 3;
  cfg.shared.aer.min_spacing_s = 2e-6;

  runtime::PipelineRunner real_radio(cfg);
  const auto over_air = real_radio.run(recs);

  auto ideal_cfg = cfg;
  ideal_cfg.shared.ideal_radio = true;
  runtime::PipelineRunner ideal_radio(ideal_cfg);
  const auto ideal = ideal_radio.run(recs);

  EXPECT_EQ(over_air.shared.arbiter.dropped, 0u);
  EXPECT_EQ(over_air.shared.pulses_erased, 0u);
  EXPECT_EQ(over_air.shared.demux.invalid_address, 0u);
  EXPECT_EQ(over_air.shared.events_rx, over_air.shared.arbiter.sent);
  ASSERT_EQ(over_air.channels.size(), 8u);
  for (std::size_t c = 0; c < over_air.channels.size(); ++c) {
    const auto& a = over_air.channels[c].rx_events;
    const auto& b = ideal.channels[c].rx_events;
    ASSERT_EQ(a.size(), b.size()) << c;
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].time_s, b[k].time_s) << c;
      EXPECT_EQ(a[k].vth_code, b[k].vth_code) << c;
      EXPECT_EQ(a[k].channel, b[k].channel) << c;
    }
    EXPECT_EQ(over_air.channels[c].rx_correlation_pct,
              ideal.channels[c].rx_correlation_pct)
        << c;
  }
}

TEST(PipelineRunner, SharedModeEmptyBatchIsANoOp) {
  // Both link modes must accept an empty batch cleanly; the shared path
  // used to reach aer_split with zero channels and throw.
  runtime::RunnerConfig cfg;
  cfg.link_mode = runtime::LinkMode::kSharedAer;
  runtime::PipelineRunner runner(cfg);
  const std::vector<emg::Recording> none;
  const auto report = runner.run(none);
  EXPECT_TRUE(report.channels.empty());
  EXPECT_EQ(report.shared.arbiter.in_events, 0u);
  EXPECT_EQ(report.shared.events_rx, 0u);
}

TEST(PipelineRunner, SharedModeParallelMatchesSerial) {
  // The shared link itself is one serial radio, but the encode and
  // reconstruction stages fan out across the pool — the batch must stay
  // bit-identical to the serial run, noise and all.
  const auto recs = make_channels(5, 1.5);
  runtime::RunnerConfig cfg;
  cfg.jobs = 3;
  cfg.keep_rx_events = true;
  cfg.link_mode = runtime::LinkMode::kSharedAer;
  cfg.link.seed = 29;
  cfg.link.channel.distance_m = 0.7;
  cfg.link.channel.ref_loss_db = 30.0;
  cfg.shared.aer.address_bits = 3;
  cfg.shared.aer.min_spacing_s = 2e-6;
  runtime::PipelineRunner runner(cfg);

  const auto serial = runner.run_serial(recs);
  const auto parallel = runner.run(recs);

  EXPECT_EQ(serial.shared.arbiter.sent, parallel.shared.arbiter.sent);
  EXPECT_EQ(serial.shared.pulses_tx, parallel.shared.pulses_tx);
  EXPECT_EQ(serial.shared.pulses_erased, parallel.shared.pulses_erased);
  EXPECT_EQ(serial.shared.events_rx, parallel.shared.events_rx);
  EXPECT_EQ(serial.shared.demux.invalid_address,
            parallel.shared.demux.invalid_address);
  ASSERT_EQ(serial.channels.size(), parallel.channels.size());
  for (std::size_t c = 0; c < serial.channels.size(); ++c) {
    const auto& s = serial.channels[c];
    const auto& p = parallel.channels[c];
    EXPECT_EQ(s.events_tx, p.events_tx) << c;
    EXPECT_EQ(s.events_rx, p.events_rx) << c;
    EXPECT_EQ(s.rx_correlation_pct, p.rx_correlation_pct) << c;
    EXPECT_EQ(s.tx_correlation_pct, p.tx_correlation_pct) << c;
    ASSERT_EQ(s.rx_events.size(), p.rx_events.size()) << c;
    for (std::size_t k = 0; k < s.rx_events.size(); ++k) {
      EXPECT_EQ(s.rx_events[k].time_s, p.rx_events[k].time_s);
      EXPECT_EQ(s.rx_events[k].vth_code, p.rx_events[k].vth_code);
      EXPECT_EQ(s.rx_events[k].channel, p.rx_events[k].channel);
    }
  }
}

/// The shared-radio pass over a batch, computed the whole-stream way: one
/// run_aer_over_link, then Evaluator::reconstruct_datc per channel.
struct WholeStreamShared {
  uwb::SharedAerRun link;
  std::vector<Real> rx_corr;
  std::vector<Real> tx_corr;
};

WholeStreamShared whole_stream_shared(const runtime::RunnerConfig& cfg,
                                      const emg::Evaluator& eval,
                                      const std::vector<emg::Recording>& recs) {
  std::vector<core::EventStream> tx(recs.size());
  for (std::size_t c = 0; c < recs.size(); ++c) {
    core::EventArena arena;
    core::encode_datc_events(recs[c].emg_v,
                             emg::datc_encoder_config(cfg.eval), arena);
    tx[c] = arena.take_stream();
  }
  WholeStreamShared out;
  out.link = uwb::run_aer_over_link(tx, cfg.link, cfg.shared,
                                    cfg.eval.dtc.dac_bits);
  const auto score = [&](const std::vector<Real>& truth,
                         const core::EventStream& events, Real duration) {
    const auto recon = eval.reconstruct_datc(events, duration);
    const std::size_t n = std::min(truth.size(), recon.size());
    return dsp::correlation_percent(std::span<const Real>(truth.data(), n),
                                    std::span<const Real>(recon.data(), n));
  };
  for (std::size_t c = 0; c < recs.size(); ++c) {
    const Real duration = recs[c].emg_v.duration_s();
    const auto truth = eval.ground_truth(recs[c]);
    out.rx_corr.push_back(score(truth, out.link.per_channel_rx[c], duration));
    out.tx_corr.push_back(cfg.score_tx_side ? score(truth, tx[c], duration)
                                            : 0.0);
  }
  return out;
}

bool same_events(const core::EventStream& a, const core::EventStream& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k].time_s != b[k].time_s || a[k].vth_code != b[k].vth_code ||
        a[k].channel != b[k].channel) {
      return false;
    }
  }
  return true;
}

bool same_aer(const uwb::AerStats& a, const uwb::AerStats& b) {
  return a.in_events == b.in_events && a.sent == b.sent &&
         a.dropped == b.dropped && a.max_delay_s == b.max_delay_s &&
         a.invalid_address == b.invalid_address;
}

bool same_decode(const uwb::DecodeStats& a, const uwb::DecodeStats& b) {
  return a.pulses_in == b.pulses_in && a.pulses_detected == b.pulses_detected &&
         a.packets_decoded == b.packets_decoded &&
         a.code_bit_ones_missed == b.code_bit_ones_missed &&
         a.false_alarm_bits == b.false_alarm_bits;
}

/// Bit-equality of two shared-mode reports, wall time aside.
void expect_same_shared(const runtime::BatchReport& a,
                        const runtime::BatchReport& b,
                        const std::string& what) {
  EXPECT_TRUE(same_aer(a.shared.arbiter, b.shared.arbiter)) << what;
  EXPECT_TRUE(same_aer(a.shared.demux, b.shared.demux)) << what;
  EXPECT_EQ(a.shared.pulses_tx, b.shared.pulses_tx) << what;
  EXPECT_EQ(a.shared.pulses_erased, b.shared.pulses_erased) << what;
  EXPECT_EQ(a.shared.events_rx, b.shared.events_rx) << what;
  EXPECT_TRUE(same_decode(a.shared.decode, b.shared.decode)) << what;
  ASSERT_EQ(a.channels.size(), b.channels.size()) << what;
  for (std::size_t c = 0; c < a.channels.size(); ++c) {
    const auto& x = a.channels[c];
    const auto& y = b.channels[c];
    EXPECT_EQ(x.channel, y.channel) << what << " ch" << c;
    EXPECT_EQ(x.events_tx, y.events_tx) << what << " ch" << c;
    EXPECT_EQ(x.events_rx, y.events_rx) << what << " ch" << c;
    EXPECT_EQ(x.rx_correlation_pct, y.rx_correlation_pct) << what << " ch" << c;
    EXPECT_EQ(x.tx_correlation_pct, y.tx_correlation_pct) << what << " ch" << c;
    EXPECT_TRUE(same_events(x.rx_events, y.rx_events)) << what << " ch" << c;
  }
}

TEST(PipelineRunner, SharedPipelineMatchesWholeStreamReference) {
  // The shared pass runs its radio in reconstruction-window chunks (0.25 s)
  // and reconstructs behind it; for every pool size, record length (none a
  // multiple of the chunk), per-channel durations and mode it must equal
  // run_serial and the whole-stream reference bit for bit.
  const auto batch = [](std::vector<Real> durations, bool silent_last) {
    std::vector<emg::Recording> recs;
    for (std::size_t i = 0; i < durations.size(); ++i) {
      emg::RecordingSpec spec;
      spec.seed = 2000 + i;
      spec.duration_s = durations[i];
      spec.gain_v = 0.3 + 0.1 * static_cast<Real>(i);
      if (silent_last && i + 1 == durations.size()) spec.gain_v = 0.0;
      recs.push_back(emg::make_recording(spec));
    }
    return recs;
  };
  const std::vector<std::pair<std::string, std::vector<emg::Recording>>>
      batches = {{"0.3s", batch({0.3, 0.3, 0.3}, false)},
                 {"1.01s", batch({1.01, 1.01, 1.01}, false)},
                 {"2.6s", batch({2.6, 2.6, 2.6}, false)},
                 {"mixed+silent", batch({2.6, 0.3, 1.01, 1.7}, true)}};
  EXPECT_EQ(batches.back().second.back().emg_v.size(), 4250u);

  struct Mode {
    std::string name;
    void (*apply)(runtime::RunnerConfig&);
  };
  const std::vector<Mode> modes = {
      {"rate-inversion", [](runtime::RunnerConfig&) {}},
      {"code-duty",
       [](runtime::RunnerConfig& c) {
         c.eval.datc_mode = core::DatcDecodeMode::kCodeDuty;
       }},
      {"ideal-radio",
       [](runtime::RunnerConfig& c) { c.shared.ideal_radio = true; }},
      {"no-tx-side",
       [](runtime::RunnerConfig& c) {
         c.score_tx_side = false;
         c.keep_rx_events = false;
       }},
  };

  for (const auto& mode : modes) {
    runtime::RunnerConfig base;
    base.keep_rx_events = true;
    base.link_mode = runtime::LinkMode::kSharedAer;
    base.link.seed = 31;
    // A lossy link and a congested arbiter: erasures, false alarms,
    // invalid addresses and drops all occur.
    base.link.channel.distance_m = 0.7;
    base.link.channel.ref_loss_db = 30.0;
    base.link.channel.erasure_prob = 0.02;
    base.link.detector.false_alarm_prob = 1e-3;
    base.shared.aer.address_bits = 3;
    base.shared.aer.min_spacing_s = 2.5e-3;
    mode.apply(base);
    const runtime::PipelineRunner reference_runner(base);
    for (const auto& [name, recs] : batches) {
      const auto ref =
          whole_stream_shared(base, reference_runner.evaluator(), recs);
      const auto serial = reference_runner.run_serial(recs);
      const std::string what = mode.name + " " + name;
      EXPECT_TRUE(same_aer(serial.shared.arbiter, ref.link.arbiter)) << what;
      EXPECT_TRUE(same_aer(serial.shared.demux, ref.link.demux)) << what;
      EXPECT_EQ(serial.shared.pulses_tx, ref.link.pulses_tx) << what;
      EXPECT_EQ(serial.shared.pulses_erased, ref.link.pulses_erased) << what;
      EXPECT_EQ(serial.shared.events_rx, ref.link.merged_rx.size()) << what;
      EXPECT_TRUE(same_decode(serial.shared.decode, ref.link.decode)) << what;
      for (std::size_t c = 0; c < recs.size(); ++c) {
        const auto& ch = serial.channels[c];
        EXPECT_EQ(ch.events_rx, ref.link.per_channel_rx[c].size()) << what;
        EXPECT_EQ(ch.rx_correlation_pct, ref.rx_corr[c]) << what << " ch" << c;
        EXPECT_EQ(ch.tx_correlation_pct, ref.tx_corr[c]) << what << " ch" << c;
        EXPECT_TRUE(same_events(ch.rx_events,
                                base.keep_rx_events
                                    ? ref.link.per_channel_rx[c]
                                    : core::EventStream{}))
            << what << " ch" << c;
      }
      for (const std::size_t jobs : {1, 2, 3, 4, 7}) {
        runtime::RunnerConfig cfg = base;
        cfg.jobs = jobs;
        runtime::PipelineRunner runner(cfg);
        expect_same_shared(runner.run(recs), serial,
                           what + " jobs=" + std::to_string(jobs));
      }
    }
  }
  // The grid exercised what it claims to.
  runtime::RunnerConfig probe;
  probe.link_mode = runtime::LinkMode::kSharedAer;
  probe.link.channel.distance_m = 0.7;
  probe.link.channel.ref_loss_db = 30.0;
  probe.link.channel.erasure_prob = 0.02;
  probe.link.detector.false_alarm_prob = 1e-3;
  probe.shared.aer.address_bits = 3;
  probe.shared.aer.min_spacing_s = 2.5e-3;
  const auto busy = runtime::PipelineRunner(probe).run_serial(
      batches[2].second);
  EXPECT_GT(busy.shared.arbiter.dropped, 0u);
  EXPECT_GT(busy.shared.arbiter.sent, busy.shared.arbiter.dropped);
  EXPECT_GT(busy.shared.pulses_erased, 0u);
  EXPECT_GT(busy.shared.decode.false_alarm_bits, 0u);
  EXPECT_GT(busy.shared.demux.invalid_address, 0u);
  EXPECT_EQ(runtime::PipelineRunner(probe)
                .run_serial(batches.back().second)
                .channels.back()
                .events_tx,
            0u);
}

TEST(PipelineRunner, CachedDetectionMatchesReferenceDecode) {
  // Build a pulse train, run it through both receiver configurations with
  // the same Rng seed; decoded streams must match event-for-event.
  const auto recs = make_channels(1, 2.0);
  const emg::EvalConfig eval;
  core::DatcEncoderConfig enc;
  enc.dtc = eval.dtc;
  const auto tx = core::encode_datc_events(recs[0].emg_v, enc);

  uwb::ModulatorConfig mod;
  mod.code_bits = eval.dtc.dac_bits;
  const auto train = uwb::modulate_datc(tx, mod);

  uwb::ChannelConfig channel;
  dsp::Rng rng_a(99);
  dsp::Rng rng_b(99);
  const auto prop_a = uwb::propagate(train, channel, rng_a);
  const auto prop_b = uwb::propagate(train, channel, rng_b);

  uwb::UwbReceiverConfig rxc;
  rxc.modulator = mod;
  rxc.cache_detection = false;
  uwb::UwbReceiver rx_ref(rxc, channel, rng_a.fork());
  rxc.cache_detection = true;
  uwb::UwbReceiver rx_fast(rxc, channel, rng_b.fork());

  const auto ev_ref = rx_ref.decode(prop_a.received);
  const auto ev_fast = rx_fast.decode(prop_b.received);
  ASSERT_EQ(ev_ref.size(), ev_fast.size());
  for (std::size_t i = 0; i < ev_ref.size(); ++i) {
    EXPECT_EQ(ev_ref[i].time_s, ev_fast[i].time_s) << i;
    EXPECT_EQ(ev_ref[i].vth_code, ev_fast[i].vth_code) << i;
  }
  EXPECT_EQ(rx_ref.stats().pulses_detected, rx_fast.stats().pulses_detected);
}

}  // namespace
