// The two batch workloads: `batch-dataset` (the paper's campaign through
// PipelineRunner, one private radio per channel) and `aer-shared` (64
// channels contending for one arbitrated AER radio).
//
// Untraced, each run times interleaved jobs=1 and jobs=4 engine passes.
// Traced, it also rebuilds the engine's stage sequence from the layers'
// public calls (same configs, same per-channel seed derivation) with a
// span around every call, and checks that the rebuilt pass hashes to the
// engine's output bit for bit.

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <memory>
#include <span>
#include <vector>

#include "bench.hpp"
#include "config/factory.hpp"
#include "config/scenario.hpp"
#include "core/datc_encoder.hpp"
#include "core/event_arena.hpp"
#include "core/rate_calibration.hpp"
#include "dsp/rng.hpp"
#include "dsp/stats.hpp"
#include "emg/dataset.hpp"
#include "emg/evaluation.hpp"
#include "runtime/pipeline_runner.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/end_to_end.hpp"
#include "simd/dispatch.hpp"
#include "stats.hpp"
#include "uwb/aer.hpp"
#include "uwb/channel.hpp"
#include "uwb/link_pipeline.hpp"
#include "uwb/modulator.hpp"
#include "uwb/receiver.hpp"

namespace datc_bench {
namespace {

using namespace datc;
using dsp::Real;

/// Worker count of the parallel passes: fixed (never 0 = hardware), so
/// the figure means the same on any host.
constexpr std::size_t kJobs = 4;
/// Set-up is repeated and its median reported.
constexpr int kSetupReps = 3;

struct BatchWorkload {
  const char* preset;
  emg::DatasetConfig dataset;
  std::vector<std::size_t> indices;
};

/// batch-dataset: 16 of the 190 campaign patterns (motor-unit model,
/// 20 s at 2.5 kHz). Stride 11 is coprime with the 8 subjects, so the
/// subset holds every subject twice.
BatchWorkload dataset_workload() {
  BatchWorkload w{"paper-baseline", {}, {}};
  for (std::size_t k = 0; k < 16; ++k) w.indices.push_back(k * 11);
  return w;
}

/// aer-shared: 64 channels of the same motor-unit model, 5 s each, all
/// through one arbitrated radio (the shared-aer-64ch preset's link).
BatchWorkload aer_workload() {
  BatchWorkload w{"shared-aer-64ch", {}, {}};
  w.dataset.num_patterns = 64;
  w.dataset.duration_s = 5.0;
  for (std::size_t k = 0; k < 64; ++k) w.indices.push_back(k);
  return w;
}

struct Prepared {
  runtime::RunnerConfig rc;
  std::vector<emg::Recording> recs;
  double signal_s{0.0};
};

/// One complete set-up: factory + calibration Monte Carlo (built fresh,
/// bypassing the process-wide memo, so every repetition pays it) and the
/// recordings, synthesised on kJobs threads.
Prepared set_up(const BatchWorkload& w, std::uint64_t seed) {
  Prepared p;
  {
    Span span(Layer::kConfig, 1);
    config::ScenarioSpec spec = config::make_preset(w.preset);
    spec.link.seed += seed;
    const config::PipelineFactory factory(spec);
    p.rc = factory.runner_config();
  }
  for (const Real fs : {p.rc.eval.analog_fs_hz, p.rc.eval.datc_clock_hz}) {
    Span span(Layer::kConfig, 1);
    const core::RateCalibration cal(emg::calibration_config(p.rc.eval, fs));
    (void)cal;
  }
  // The subject population (gains) is the campaign's own; the seed picks
  // the signal realisation of every pattern, so seeds differ in their
  // noise, not in how much work the population asks for.
  const emg::DatasetFactory factory(w.dataset);
  p.recs.resize(w.indices.size());
  runtime::ThreadPool pool(kJobs);
  runtime::parallel_for(pool, w.indices.size(), [&](std::size_t i) {
    Span span(Layer::kEmg);
    emg::RecordingSpec rs = factory.specs()[w.indices[i]];
    rs.seed += seed;
    p.recs[i] = emg::make_recording(rs);
    span.add_items(p.recs[i].emg_v.size());
  });
  for (const auto& r : p.recs) p.signal_s += r.emg_v.duration_s();
  return p;
}

void hash_decode(Hasher& h, const uwb::DecodeStats& d) {
  h.add(d.pulses_in);
  h.add(d.pulses_detected);
  h.add(d.packets_decoded);
  h.add(d.code_bit_ones_missed);
  h.add(d.false_alarm_bits);
}

void hash_aer(Hasher& h, const uwb::AerStats& a) {
  h.add(a.in_events);
  h.add(a.sent);
  h.add(a.dropped);
  h.add(a.max_delay_s);
  h.add(a.invalid_address);
}

/// Bit-exact fingerprint of everything a pass reports.
std::uint64_t report_hash(const runtime::BatchReport& r) {
  Hasher h;
  for (const auto& ch : r.channels) {
    h.add(std::uint64_t{ch.channel});
    h.add(ch.events_tx);
    h.add(ch.pulses_tx);
    h.add(ch.pulses_erased);
    h.add(ch.events_rx);
    h.add(ch.tx_correlation_pct);
    h.add(ch.rx_correlation_pct);
    hash_decode(h, ch.decode);
  }
  if (r.link_mode == runtime::LinkMode::kSharedAer) {
    hash_aer(h, r.shared.arbiter);
    hash_aer(h, r.shared.demux);
    h.add(r.shared.pulses_tx);
    h.add(r.shared.pulses_erased);
    h.add(r.shared.events_rx);
    hash_decode(h, r.shared.decode);
  }
  return h.value();
}

Real correlation(const std::vector<Real>& truth, const std::vector<Real>& recon) {
  const std::size_t n = std::min(truth.size(), recon.size());
  return dsp::correlation_percent(std::span<const Real>(truth.data(), n),
                                  std::span<const Real>(recon.data(), n));
}

/// What a rebuilt pass keeps besides its report: the stage outputs the
/// correctness gates and the SIMD comparison reuse.
struct Recomposed {
  runtime::BatchReport report;
  std::vector<core::EventStream> tx;
  std::vector<uwb::PulseTrain> received;  ///< per channel, or one shared
  std::vector<core::EventStream> rx;      ///< per channel, time-sorted
  std::vector<std::vector<Real>> env_rx;
};

core::EventStream encode_channel(const emg::Recording& rec,
                                 const core::DatcEncoderConfig& enc) {
  Span span(Layer::kEncode, rec.emg_v.size());
  core::EventArena arena;
  core::encode_datc_events(rec.emg_v, enc, arena);
  return arena.take_stream();
}

/// The receiver half of run_datc_over_link / run_aer_over_link.
core::EventStream decode_train(const uwb::PulseTrain& received,
                               const uwb::UwbReceiverConfig& rxc,
                               const uwb::ChannelConfig& channel,
                               dsp::Rng& rx_rng, uwb::DecodeStats* stats) {
  Span span(Layer::kReceiver, received.size());
  uwb::UwbReceiver rx(rxc, channel, rx_rng);
  core::EventStream out = rx.decode(received);
  out.sort_by_time();
  *stats = rx.stats();
  return out;
}

/// Reconstruct + score one channel, as the engine's stage 3 does.
void score_channel(const emg::Evaluator& eval, const emg::Recording& rec,
                   const core::EventStream& tx, const core::EventStream& rx,
                   bool score_tx, runtime::ChannelReport& out,
                   std::vector<Real>& env_rx) {
  const Real duration = rec.emg_v.duration_s();
  std::vector<Real> truth;
  {
    Span span(Layer::kScore);
    truth = eval.ground_truth(rec);
  }
  {
    Span span(Layer::kRecon);
    env_rx = eval.reconstruct_datc(rx, duration);
    span.add_items(env_rx.size());
  }
  {
    Span span(Layer::kScore, truth.size());
    out.rx_correlation_pct = correlation(truth, env_rx);
  }
  if (score_tx) {
    std::vector<Real> env_tx;
    {
      Span span(Layer::kRecon);
      env_tx = eval.reconstruct_datc(tx, duration);
      span.add_items(env_tx.size());
    }
    Span span(Layer::kScore, truth.size());
    out.tx_correlation_pct = correlation(truth, env_tx);
  }
}

/// PipelineRunner::run_channel rebuilt from public calls, serially.
Recomposed recompose_per_channel(const Prepared& p, const emg::Evaluator& eval) {
  const runtime::RunnerConfig& rc = p.rc;
  const std::size_t n = p.recs.size();
  Recomposed out;
  out.report.channels.resize(n);
  out.tx.resize(n);
  out.rx.resize(n);
  out.env_rx.resize(n);
  out.received.resize(n);
  const auto enc = emg::datc_encoder_config(rc.eval);
  const unsigned bits = rc.eval.dtc.dac_bits;
  Span pass(Layer::kRunner, 1);
  for (std::size_t i = 0; i < n; ++i) {
    auto& ch = out.report.channels[i];
    ch.channel = static_cast<std::uint32_t>(i);
    out.tx[i] = encode_channel(p.recs[i], enc);
    ch.events_tx = out.tx[i].size();

    uwb::ModulatorConfig mod = rc.link.modulator;
    mod.code_bits = bits;
    uwb::PulseTrain train;
    {
      Span span(Layer::kModulate);
      train = uwb::modulate_datc(out.tx[i], mod);
      span.add_items(train.size());
    }
    ch.pulses_tx = train.size();
    // The engine's per-channel seed derivation; the receiver's stream is
    // forked before any propagation draw.
    dsp::Rng rng(rc.link.seed ^ static_cast<std::uint64_t>(i));
    dsp::Rng rx_rng = rng.fork();
    uwb::ChannelResult prop;
    {
      Span span(Layer::kChannel, train.size());
      prop = uwb::propagate(train, rc.link.channel, rng);
    }
    ch.pulses_erased = prop.erased;
    uwb::UwbReceiverConfig rxc;
    rxc.detector = rc.link.detector;
    rxc.modulator = mod;
    rxc.decode_codes = true;
    rxc.cache_detection = true;
    out.rx[i] = decode_train(prop.received, rxc, rc.link.channel, rx_rng,
                             &ch.decode);
    ch.events_rx = out.rx[i].size();
    out.received[i] = std::move(prop.received);
    score_channel(eval, p.recs[i], out.tx[i], out.rx[i], rc.score_tx_side, ch,
                  out.env_rx[i]);
  }
  return out;
}

/// PipelineRunner::run_shared rebuilt from public calls, serially.
Recomposed recompose_shared(const Prepared& p, const emg::Evaluator& eval) {
  const runtime::RunnerConfig& rc = p.rc;
  const std::size_t n = p.recs.size();
  Recomposed out;
  out.report.link_mode = runtime::LinkMode::kSharedAer;
  out.report.channels.resize(n);
  out.tx.resize(n);
  out.env_rx.resize(n);
  const auto enc = emg::datc_encoder_config(rc.eval);
  Span pass(Layer::kRunner, 1);
  std::size_t events_in = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out.tx[i] = encode_channel(p.recs[i], enc);
    out.report.channels[i].channel = static_cast<std::uint32_t>(i);
    out.report.channels[i].events_tx = out.tx[i].size();
    events_in += out.tx[i].size();
  }
  auto& sh = out.report.shared;
  core::EventStream merged;
  {
    Span span(Layer::kAerMerge, events_in);
    merged = uwb::aer_merge(out.tx, rc.shared.aer, &sh.arbiter);
  }
  uwb::ModulatorConfig mod = rc.link.modulator;
  mod.code_bits = rc.eval.dtc.dac_bits;
  uwb::PulseTrain train;
  {
    Span span(Layer::kModulate);
    train = uwb::modulate_aer(merged, mod, rc.shared.aer.address_bits);
    span.add_items(train.size());
  }
  sh.pulses_tx = train.size();
  dsp::Rng rng(rc.link.seed);
  dsp::Rng rx_rng = rng.fork();
  uwb::ChannelResult prop;
  {
    Span span(Layer::kChannel, train.size());
    prop = uwb::propagate(train, rc.link.channel, rng);
  }
  sh.pulses_erased = prop.erased;
  uwb::UwbReceiverConfig rxc;
  rxc.detector = rc.link.detector;
  rxc.modulator = mod;
  rxc.address_bits = rc.shared.aer.address_bits;
  rxc.decode_codes = true;
  rxc.cache_detection = rc.shared.cache_detection;
  const core::EventStream merged_rx =
      decode_train(prop.received, rxc, rc.link.channel, rx_rng, &sh.decode);
  sh.events_rx = merged_rx.size();
  out.received.push_back(std::move(prop.received));
  {
    Span span(Layer::kAerDemux, merged_rx.size());
    out.rx = uwb::aer_split(merged_rx, static_cast<unsigned>(n), &sh.demux);
  }
  for (std::size_t i = 0; i < n; ++i) {
    auto& ch = out.report.channels[i];
    ch.events_rx = out.rx[i].size();
    score_channel(eval, p.recs[i], out.tx[i], out.rx[i], rc.score_tx_side, ch,
                  out.env_rx[i]);
  }
  return out;
}

bool same_events(const core::EventStream& a, const core::EventStream& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i].time_s) !=
            std::bit_cast<std::uint64_t>(b[i].time_s) ||
        a[i].vth_code != b[i].vth_code || a[i].channel != b[i].channel) {
      return false;
    }
  }
  return true;
}

bool same_decode(const uwb::DecodeStats& a, const uwb::DecodeStats& b) {
  return a.pulses_in == b.pulses_in && a.pulses_detected == b.pulses_detected &&
         a.packets_decoded == b.packets_decoded &&
         a.code_bit_ones_missed == b.code_bit_ones_missed &&
         a.false_alarm_bits == b.false_alarm_bits;
}

bool same_double(Real a, Real b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Gate: the engine's decoded events and the rebuilt pass's envelopes are
/// bit-equal to the reference pipeline (per-cycle encode_datc, uncached
/// detection): sim::EndToEnd for private radios, the reference link
/// stage for the shared radio.
void check_reference(const Prepared& p, const emg::Evaluator& eval,
                     const runtime::BatchReport& engine_kept,
                     const Recomposed& rebuilt, RunResult& out) {
  const runtime::RunnerConfig& rc = p.rc;
  const std::size_t n = p.recs.size();
  const auto enc = emg::datc_encoder_config(rc.eval);
  std::vector<core::EventStream> ref_tx(n);
  for (std::size_t i = 0; i < n; ++i) {
    ref_tx[i] = core::encode_datc(p.recs[i].emg_v, enc).events;
  }
  std::vector<core::EventStream> ref_rx(n);
  if (rc.link_mode == runtime::LinkMode::kPerChannel) {
    const sim::EndToEnd e2e(rc.eval, rc.link);
    const auto ref = e2e.run_datc_batch(p.recs, kJobs);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& ch = engine_kept.channels[i];
      const bool ok = ref[i].tx_side.num_events == ch.events_tx &&
                      ref[i].pulses_tx == ch.pulses_tx &&
                      ref[i].pulses_erased == ch.pulses_erased &&
                      ref[i].events_rx == ch.events_rx &&
                      same_decode(ref[i].decode, ch.decode) &&
                      same_double(ref[i].tx_side.correlation_pct,
                                  ch.tx_correlation_pct) &&
                      same_double(ref[i].rx_side.correlation_pct,
                                  ch.rx_correlation_pct);
      out.check(ok, "channel " + std::to_string(i) +
                        ": engine report != sim::EndToEnd reference");
      uwb::LinkConfig link = rc.link;
      link.seed = rc.link.seed ^ static_cast<std::uint64_t>(i);
      ref_rx[i] = uwb::run_datc_over_link(ref_tx[i], link, rc.eval.dtc.dac_bits,
                                          /*cache_detection=*/false)
                      .events_rx;
    }
  } else {
    uwb::SharedAerConfig shared = rc.shared;
    shared.cache_detection = false;
    ref_rx = uwb::run_aer_over_link(ref_tx, rc.link, shared,
                                    rc.eval.dtc.dac_bits)
                 .per_channel_rx;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::string ch = "channel " + std::to_string(i);
    out.check(same_events(ref_tx[i], rebuilt.tx[i]),
              ch + ": encoded events != reference encoder");
    out.check(same_events(ref_rx[i], engine_kept.channels[i].rx_events),
              ch + ": engine decoded events != reference link");
    const auto env = eval.reconstruct_datc(ref_rx[i], p.recs[i].emg_v.duration_s());
    out.check(bit_equal(env, rebuilt.env_rx[i]),
              ch + ": envelope != reference reconstruction");
  }
}

/// Stage calls re-run on the SIMD backend in use and on the scalar one:
/// speedup = scalar median / active median; outputs must match bitwise.
/// The scalar runs are traced as the simd layer. Returns the number of
/// traced rounds (each round: every stage on both backends).
int measure_simd(const Prepared& p, const emg::Evaluator& eval,
                  const Recomposed& base, double budget_s, RunResult& out) {
  const simd::Backend active = simd::active_backend();
  const auto enc = emg::datc_encoder_config(p.rc.eval);
  uwb::ModulatorConfig mod = p.rc.link.modulator;
  mod.code_bits = p.rc.eval.dtc.dac_bits;
  uwb::UwbReceiverConfig rxc;
  rxc.detector = p.rc.link.detector;
  rxc.modulator = mod;
  rxc.decode_codes = true;
  rxc.cache_detection = true;
  const bool shared = p.rc.link_mode == runtime::LinkMode::kSharedAer;
  if (shared) {
    rxc.address_bits = p.rc.shared.aer.address_bits;
    rxc.cache_detection = p.rc.shared.cache_detection;
  }

  struct Stage {
    const char* name;
    std::vector<double> active_s;
    std::vector<double> scalar_s;
    std::uint64_t hash_active{0};
    std::uint64_t hash_scalar{0};
  };
  std::array<Stage, 3> stages{Stage{"encode", {}, {}, 0, 0},
                              Stage{"receiver", {}, {}, 0, 0},
                              Stage{"recon", {}, {}, 0, 0}};
  const auto run_stage = [&](std::size_t s) {
    Hasher h;
    if (s == 0) {
      core::EventArena arena;
      for (const auto& rec : p.recs) {
        core::encode_datc_events(rec.emg_v, enc, arena);
        for (std::size_t k = 0; k < arena.size(); ++k) {
          h.add(arena[k].time_s);
          h.add(std::uint64_t{arena[k].vth_code});
        }
      }
    } else if (s == 1) {
      for (std::size_t i = 0; i < base.received.size(); ++i) {
        dsp::Rng rng(shared ? p.rc.link.seed
                            : p.rc.link.seed ^ static_cast<std::uint64_t>(i));
        dsp::Rng rx_rng = rng.fork();
        uwb::UwbReceiver rx(rxc, p.rc.link.channel, rx_rng);
        const auto ev = rx.decode(base.received[i]);
        for (std::size_t k = 0; k < ev.size(); ++k) {
          h.add(ev[k].time_s);
          h.add(std::uint64_t{ev[k].vth_code});
          h.add(std::uint64_t{ev[k].channel});
        }
      }
    } else {
      for (std::size_t i = 0; i < p.recs.size(); ++i) {
        h.add(std::span<const Real>(
            eval.reconstruct_datc(base.rx[i], p.recs[i].emg_v.duration_s())));
      }
    }
    return h.value();
  };

  // One untraced warm-up round on both backends, so one-off first-call
  // costs land in no span and the allocation counts repeat exactly.
  for (std::size_t s = 0; s < stages.size(); ++s) {
    (void)run_stage(s);
    simd::force_backend(simd::Backend::scalar);
    (void)run_stage(s);
    simd::force_backend(active);
  }
  const Clock::time_point deadline = deadline_after(budget_s);
  int rounds = 0;
  set_tracing(true);
  while (rounds < 3 || (Clock::now() < deadline && rounds < 200)) {
    for (std::size_t s = 0; s < stages.size(); ++s) {
      auto t0 = Clock::now();
      stages[s].hash_active = run_stage(s);
      stages[s].active_s.push_back(seconds_between(t0, Clock::now()));
      simd::force_backend(simd::Backend::scalar);
      {
        Span span(Layer::kSimd, 1);
        t0 = Clock::now();
        stages[s].hash_scalar = run_stage(s);
        stages[s].scalar_s.push_back(seconds_between(t0, Clock::now()));
      }
      simd::force_backend(active);
    }
    ++rounds;
  }
  set_tracing(false);
  for (auto& st : stages) {
    out.check(st.hash_active == st.hash_scalar,
              std::string("simd: ") + st.name +
                  " output differs between backends");
    out.set(std::string("simd.speedup.") + st.name,
            median(st.scalar_s) / median(st.active_s), "x");
  }
  return rounds;
}

void run_batch(const BatchWorkload& w, const Options& opt, RunResult& out) {
  // ---- set-up, repeated; the first repetition's inputs are kept
  std::vector<double> setup_s;
  Prepared p;
  set_tracing(opt.trace);
  for (int r = 0; r < kSetupReps; ++r) {
    const auto t0 = Clock::now();
    Prepared q = set_up(w, opt.seed);
    const runtime::PipelineRunner runner(q.rc);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    if (r == 0) p = std::move(q);
  }
  set_tracing(false);
  out.set("setup_s", median(setup_s), "s");
  if (opt.trace) {
    const auto spans = collect_spans();
    out.add_spans(totals_by_layer(spans), kSetupReps);
    archive_spans();
    const double setup_ms =
        out.layer(Layer::kEmg).self_ms + out.layer(Layer::kConfig).self_ms;
    out.layer(Layer::kEmg).path_ms = setup_ms;
    out.layer(Layer::kConfig).path_ms = setup_ms;
  }

  runtime::RunnerConfig rc1 = p.rc;
  rc1.jobs = 1;
  runtime::RunnerConfig rc4 = p.rc;
  rc4.jobs = kJobs;
  runtime::PipelineRunner runner1(rc1);
  runtime::PipelineRunner runner4(rc4);
  const emg::Evaluator& eval = runner1.evaluator();

  // Warm-up pass per engine: pools started, caches and allocator warm.
  const runtime::BatchReport first = runner1.run(p.recs);
  const std::uint64_t want = report_hash(first);
  std::size_t events = 0;
  for (const auto& ch : first.channels) events += ch.events_tx;
  std::printf("# traffic: %zu channels, %.1f s each, %.1f events/s per "
              "channel\n",
              p.recs.size(), p.recs[0].emg_v.duration_s(),
              static_cast<double>(events) / p.signal_s);
  out.check(report_hash(runner4.run(p.recs)) == want,
            "jobs=4 pass differs from jobs=1 pass");

  // ---- timed passes (tracing off), jobs=1 and jobs=4 interleaved
  const double pass_budget = opt.trace ? 0.35 * opt.seconds : opt.seconds;
  std::vector<double> t1;
  std::vector<double> t4;
  {
    const auto deadline = deadline_after(pass_budget);
    while (t1.size() < 5 || Clock::now() < deadline) {
      auto t0 = Clock::now();
      const auto r1 = runner1.run(p.recs);
      t1.push_back(seconds_between(t0, Clock::now()));
      t0 = Clock::now();
      const auto r4 = runner4.run(p.recs);
      t4.push_back(seconds_between(t0, Clock::now()));
      const std::uint64_t bad = (report_hash(r1) != want ? 1 : 0) +
                                (report_hash(r4) != want ? 1 : 0);
      out.count(2, bad);
    }
  }
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  const double m1 = median(t1);
  const double m4 = median(t4);
  out.set("x_realtime", p.signal_s / m4, "x");
  out.set("x_realtime_1t", p.signal_s / m1, "x");
  double corr = 0.0;
  for (const auto& ch : first.channels) corr += ch.rx_correlation_pct;
  out.set("rx_corr_pct", corr / static_cast<double>(first.channels.size()), "%");
  out.set("runtime.pool.efficiency", m1 / (static_cast<double>(kJobs) * m4),
          "ratio");
  std::printf("# %zu passes per engine; pass ms: jobs=1 median %.3f, "
              "jobs=%zu median %.3f\n",
              t1.size(), m1 * 1e3, kJobs, m4 * 1e3);

  // ---- the engine's stage sequence rebuilt from the layers' public calls
  const auto recompose = [&p, &eval]() {
    return p.rc.link_mode == runtime::LinkMode::kSharedAer
               ? recompose_shared(p, eval)
               : recompose_per_channel(p, eval);
  };
  Recomposed rebuilt;
  if (opt.trace) {
    // Traced rebuilds interleaved with untraced ones: the difference is
    // what the spans themselves cost.
    const auto deadline = deadline_after(0.35 * opt.seconds);
    std::size_t kept = 0;
    std::vector<double> plain_s;
    while (kept < 5 || Clock::now() < deadline) {
      auto t0 = Clock::now();
      rebuilt = recompose();
      plain_s.push_back(seconds_between(t0, Clock::now()));
      set_tracing(true);
      rebuilt = recompose();
      set_tracing(false);
      ++kept;
      out.count(1, report_hash(rebuilt.report) != want ? 1 : 0);
    }
    const auto spans = collect_spans();
    // One runner span per rebuilt pass; its children are the stage calls.
    std::vector<double> traced_s;
    std::vector<double> stage_s;
    for (const SpanRecord& s : spans) {
      if (s.layer != Layer::kRunner) continue;
      traced_s.push_back(static_cast<double>(s.duration_ns()) / 1e9);
      stage_s.push_back(static_cast<double>(s.child_ns) / 1e9);
    }
    const auto passes = static_cast<double>(kept);
    out.add_spans(totals_by_layer(spans), passes);
    archive_spans();

    // Everything the engine spends outside the stage calls: the untraced
    // jobs=1 pass minus the traced stage sum. By construction the layer
    // self times plus this add up to the untraced pass.
    const double stage_ms = median(stage_s) * 1e3;
    const double untraced_ms = m1 * 1e3;
    const double traced_ms = median(traced_s) * 1e3;
    LayerFigures& runner = out.layer(Layer::kRunner);
    runner.self_ms = untraced_ms - stage_ms;
    out.set("runtime.runner.unattributed_ms", untraced_ms - stage_ms, "ms");
    out.set("trace.coverage", stage_ms / traced_ms, "ratio");
    const double plain_ms = median(plain_s) * 1e3;
    out.set("trace.overhead_pct", (traced_ms - plain_ms) / plain_ms * 100.0,
            "%");
    for (const Layer l :
         {Layer::kRunner, Layer::kEncode, Layer::kAerMerge, Layer::kAerDemux,
          Layer::kModulate, Layer::kChannel, Layer::kReceiver, Layer::kRecon,
          Layer::kScore}) {
      out.layer(l).path_ms = untraced_ms;
    }
    std::printf("# rebuild: %zu passes, traced %.3f ms (stage sum %.3f ms), "
                "untraced %.3f ms; engine jobs=1 pass %.3f ms\n",
                kept, traced_ms, stage_ms, plain_ms, untraced_ms);

    const auto& r = rebuilt.report;
    std::uint64_t erased = 0;
    std::uint64_t false_alarms = 0;
    if (r.link_mode == runtime::LinkMode::kSharedAer) {
      erased = r.shared.pulses_erased;
      false_alarms = r.shared.decode.false_alarm_bits;
    } else {
      for (const auto& ch : r.channels) {
        erased += ch.pulses_erased;
        false_alarms += ch.decode.false_alarm_bits;
      }
    }
    out.set("uwb.channel.erased", static_cast<double>(erased), "count");
    out.set("uwb.receiver.false_alarms", static_cast<double>(false_alarms),
            "count");
    out.set("uwb.aer_merge.dropped",
            static_cast<double>(r.shared.arbiter.dropped), "count");

    const int rounds = measure_simd(p, eval, rebuilt, 0.2 * opt.seconds, out);
    out.add_spans(totals_by_layer(collect_spans()), rounds);
    archive_spans();
  } else {
    rebuilt = recompose();
  }

  // ---- correctness gates
  out.check(report_hash(rebuilt.report) == want,
            "rebuilt stage sequence hash != engine hash");
  runtime::RunnerConfig rck = rc4;
  rck.keep_rx_events = true;
  runtime::PipelineRunner keeper(rck);
  const auto kept_report = keeper.run(p.recs);
  out.check(report_hash(kept_report) == want,
            "engine with kept events differs from the timed engine");
  check_reference(p, eval, kept_report, rebuilt, out);
}

}  // namespace

void run_batch_dataset(const Options& opt, RunResult& out) {
  run_batch(dataset_workload(), opt, out);
}

void run_aer_shared(const Options& opt, RunResult& out) {
  run_batch(aer_workload(), opt, out);
}

}  // namespace datc_bench
