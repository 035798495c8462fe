// Multi-channel encoding-engine throughput: the seed serial loop
// (sim::EndToEnd::run_datc per channel — double encode, per-cycle trace
// recording, per-pulse detection integrals) against runtime::PipelineRunner
// (fused block encode into EventArenas, cached-detection receiver, thread
// pool). The two paths are bit-identical per channel (asserted here and in
// tests/runtime_pipeline_test.cpp), so the speedup is pure implementation.
//
// On top of the end-to-end rows the table splits the engine into the three
// per-stage columns the SIMD layer targets — encode (fused comparator/DTC
// block kernel into one reused arena), decode (modulate + propagate +
// receiver + OOK decode, cache_detection as the engine runs it) and recon
// (streaming reconstructor) — and measures each column twice: once on the
// dispatched backend and once with DATC_SIMD-equivalent forcing to the
// scalar reference. Stage outputs are hashed bit-for-bit across the two
// runs; `bit_identical` in the JSON covers both the engine-vs-seed check
// and the cross-backend stage hashes.
//
// Emits BENCH_runtime.json next to the binary so CI tracks the trajectory
// (the workflow gates the encode/decode columns against the committed
// bench/BENCH_baseline.json, normalised by the baseline_ms ratio).

#include "bench_util.hpp"

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <thread>

#include "core/event_arena.hpp"
#include "core/streaming.hpp"
#include "core/streaming_reconstruct.hpp"
#include "emg/evaluation.hpp"
#include "runtime/pipeline_runner.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/end_to_end.hpp"
#include "simd/dispatch.hpp"
#include "uwb/link_pipeline.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

constexpr std::size_t kChannels = 16;
constexpr Real kDurationS = 20.0;

const std::vector<emg::Recording>& workload() {
  static const std::vector<emg::Recording> recs = [] {
    std::vector<emg::Recording> out;
    out.reserve(kChannels);
    for (std::size_t i = 0; i < kChannels; ++i) {
      emg::RecordingSpec spec;
      spec.seed = 500 + i;
      spec.duration_s = kDurationS;
      // Log-spread gains across the dataset's subject range.
      spec.gain_v = 0.16 * std::pow(0.85 / 0.16,
                                    static_cast<Real>(i) /
                                        static_cast<Real>(kChannels - 1));
      spec.name = "bench-ch" + std::to_string(i);
      out.push_back(emg::make_recording(spec));
    }
    return out;
  }();
  return recs;
}

runtime::RunnerConfig runner_config() {
  runtime::RunnerConfig cfg;
  // jobs = 0 resolves to hardware_concurrency() inside the runner; the
  // real count lands in the table and the JSON via runner.jobs().
  cfg.jobs = 0;
  cfg.link.seed = 7;
  cfg.score_tx_side = true;
  return cfg;
}

double run_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// FNV-1a over raw bytes — a cheap bit-exactness witness for comparing
/// stage outputs across SIMD backends without retaining every sample.
std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t hash_events(const core::EventStream& s, std::uint64_t h) {
  for (const auto& e : s.events()) {
    h = fnv1a(&e.time_s, sizeof e.time_s, h);
    h = fnv1a(&e.vth_code, sizeof e.vth_code, h);
    h = fnv1a(&e.channel, sizeof e.channel, h);
  }
  return h;
}

struct StageTimes {
  double encode_ms{0.0};
  double decode_ms{0.0};
  double recon_ms{0.0};
  std::uint64_t hash{1469598103934665603ull};  ///< all stage outputs
  std::size_t events_tx{0};
  std::size_t events_rx{0};
};

/// Times the three engine stages over the full 16-channel workload on the
/// currently dispatched backend (min of `reps` passes each; every pass is
/// deterministic, so min strips scheduler noise without changing values).
StageTimes run_stages(int reps) {
  const auto& recs = workload();
  const auto cfg = runner_config();
  const auto enc_cfg = emg::datc_encoder_config(cfg.eval);
  const auto rec_cfg = emg::datc_reconstruction_config(cfg.eval);
  const emg::Evaluator evaluator(cfg.eval);
  const auto cal = evaluator.datc_calibration();  // Monte Carlo — untimed

  StageTimes out;

  // Encode: fused comparator/DTC block kernel into ONE arena reused
  // across channels (the engine's allocation discipline).
  {
    core::EventArena arena;
    for (int rep = 0; rep < reps; ++rep) {
      const double t = run_ms([&] {
        for (const auto& rec : recs) {
          arena.clear();
          core::encode_datc_events(rec.emg_v, enc_cfg, arena);
        }
      });
      out.encode_ms = rep == 0 ? t : std::min(out.encode_ms, t);
    }
  }

  // The decode column needs the transmitted streams; re-encode untimed.
  std::vector<core::EventStream> tx;
  tx.reserve(recs.size());
  for (const auto& rec : recs) {
    core::EventArena arena;
    core::encode_datc_events(rec.emg_v, enc_cfg, arena);
    tx.push_back(arena.take_stream());
    out.events_tx += tx.back().size();
    out.hash = hash_events(tx.back(), out.hash);
  }

  // Decode: modulate + propagate + receiver construction + OOK decode per
  // channel, cache_detection on — exactly the engine's link stage.
  std::vector<core::EventStream> rx;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<core::EventStream> rx_rep;
    rx_rep.reserve(recs.size());
    const double t = run_ms([&] {
      for (std::size_t i = 0; i < recs.size(); ++i) {
        auto link = cfg.link;
        link.seed = cfg.link.seed ^ static_cast<std::uint64_t>(i);
        rx_rep.push_back(
            uwb::run_datc_over_link(tx[i], link, cfg.eval.dtc.dac_bits,
                                    /*cache_detection=*/true)
                .events_rx);
      }
    });
    out.decode_ms = rep == 0 ? t : std::min(out.decode_ms, t);
    rx = std::move(rx_rep);  // every rep decodes identically (fixed seeds)
  }
  for (const auto& s : rx) {
    out.events_rx += s.size();
    out.hash = hash_events(s, out.hash);
  }

  // Recon: the one reconstruction core (what the session daemon runs),
  // whole record pushed then finished — exactly the batch adapter.
  std::vector<Real> arv;
  for (int rep = 0; rep < reps; ++rep) {
    const double t = run_ms([&] {
      for (std::size_t i = 0; i < recs.size(); ++i) {
        core::StreamingDatcReconstructor recon(rec_cfg, cal);
        recon.push_events(
            std::span<const core::Event>(rx[i].events()));
        recon.finish(kDurationS);
        arv.clear();
        recon.drain(arv);
        if (rep == 0) {
          out.hash =
              fnv1a(arv.data(), arv.size() * sizeof(Real), out.hash);
        }
      }
    });
    out.recon_ms = rep == 0 ? t : std::min(out.recon_ms, t);
  }
  return out;
}

void print_runtime_table() {
  bench::print_header(
      "Multi-channel encoding engine",
      "no paper counterpart - engine vs seed serial loop, bit-identical "
      "outputs");

  const auto& recs = workload();
  std::printf("workload: %zu channels x %.0f s EMG (%.0f s total)\n",
              recs.size(), kDurationS,
              kDurationS * static_cast<double>(recs.size()));

  const auto cfg = runner_config();
  const sim::EndToEnd reference(cfg.eval, cfg.link);
  runtime::PipelineRunner runner(cfg);

  // Warm-up (first-touch of lazily built calibrations happens in ctors).
  std::vector<sim::EndToEndResult> base_results;
  const double baseline_ms = run_ms(
      [&] { base_results = reference.run_datc_batch(recs, /*jobs=*/1); });

  runtime::BatchReport serial_report;
  const double engine_serial_ms =
      run_ms([&] { serial_report = runner.run_serial(recs); });

  const std::size_t jobs = runner.jobs();
  runtime::BatchReport parallel_report;
  const double engine_parallel_ms =
      run_ms([&] { parallel_report = runner.run(recs); });

  bool identical = true;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    identical = identical &&
                base_results[i].rx_side.correlation_pct ==
                    serial_report.channels[i].rx_correlation_pct &&
                base_results[i].events_rx ==
                    serial_report.channels[i].events_rx &&
                serial_report.channels[i].rx_correlation_pct ==
                    parallel_report.channels[i].rx_correlation_pct;
  }

  // Per-stage columns: dispatched backend vs forced scalar reference.
  const simd::Backend active = simd::kernels().backend;
  constexpr int kStageReps = 3;
  const StageTimes vec = run_stages(kStageReps);
  simd::force_backend(simd::Backend::scalar);
  const StageTimes ref_scalar = run_stages(kStageReps);
  simd::force_backend(active);
  identical = identical && vec.hash == ref_scalar.hash &&
              vec.events_tx == ref_scalar.events_tx &&
              vec.events_rx == ref_scalar.events_rx;

  const double speedup_serial = baseline_ms / engine_serial_ms;
  const double speedup_parallel = baseline_ms / engine_parallel_ms;
  const double enc_speedup = ref_scalar.encode_ms / vec.encode_ms;
  const double dec_speedup = ref_scalar.decode_ms / vec.decode_ms;
  const double rec_speedup = ref_scalar.recon_ms / vec.recon_ms;
  char pooled_label[32];
  std::snprintf(pooled_label, sizeof pooled_label, "engine (%zu thread%s)",
                jobs, jobs == 1 ? "" : "s");
  std::printf("%-19s: %9.1f ms\n", "seed serial loop", baseline_ms);
  std::printf("%-19s: %9.1f ms   (%.1fx)\n", "engine (1 thread)",
              engine_serial_ms, speedup_serial);
  std::printf("%-19s: %9.1f ms   (%.1fx, hw=%u)\n", pooled_label,
              engine_parallel_ms, speedup_parallel,
              std::thread::hardware_concurrency());
  std::printf("simd backend       : %s\n", simd::backend_name(active));
  std::printf("%-19s: %9.2f ms   (scalar %7.2f ms, %.2fx)\n",
              "stage encode", vec.encode_ms, ref_scalar.encode_ms,
              enc_speedup);
  std::printf("%-19s: %9.2f ms   (scalar %7.2f ms, %.2fx)\n",
              "stage decode", vec.decode_ms, ref_scalar.decode_ms,
              dec_speedup);
  std::printf("%-19s: %9.2f ms   (scalar %7.2f ms, %.2fx)\n",
              "stage recon", vec.recon_ms, ref_scalar.recon_ms,
              rec_speedup);
  std::printf("bit-identical outputs: %s\n", identical ? "yes" : "NO (BUG)");
  std::printf("engine throughput  : %.0fx realtime\n",
              parallel_report.throughput_x_realtime());

  std::ofstream json("BENCH_runtime.json");
  json << "{\n"
       << "  \"channels\": " << recs.size() << ",\n"
       << "  \"duration_s\": " << kDurationS << ",\n"
       << "  \"baseline_ms\": " << baseline_ms << ",\n"
       << "  \"engine_serial_ms\": " << engine_serial_ms << ",\n"
       << "  \"engine_parallel_ms\": " << engine_parallel_ms << ",\n"
       << "  \"jobs\": " << jobs << ",\n"
       << "  \"hw_threads\": " << std::thread::hardware_concurrency()
       << ",\n"
       << "  \"speedup_serial\": " << speedup_serial << ",\n"
       << "  \"speedup_parallel\": " << speedup_parallel << ",\n"
       << "  \"simd_backend\": \"" << simd::backend_name(active) << "\",\n"
       << "  \"encode_ms\": " << vec.encode_ms << ",\n"
       << "  \"encode_scalar_ms\": " << ref_scalar.encode_ms << ",\n"
       << "  \"encode_speedup\": " << enc_speedup << ",\n"
       << "  \"decode_ms\": " << vec.decode_ms << ",\n"
       << "  \"decode_scalar_ms\": " << ref_scalar.decode_ms << ",\n"
       << "  \"decode_speedup\": " << dec_speedup << ",\n"
       << "  \"recon_ms\": " << vec.recon_ms << ",\n"
       << "  \"recon_scalar_ms\": " << ref_scalar.recon_ms << ",\n"
       << "  \"recon_speedup\": " << rec_speedup << ",\n"
       << "  \"throughput_x_realtime\": "
       << parallel_report.throughput_x_realtime() << ",\n"
       << "  \"bit_identical\": " << (identical ? "true" : "false") << "\n"
       << "}\n";
}

void bench_engine_16ch_serial(benchmark::State& state) {
  const auto& recs = workload();
  runtime::PipelineRunner runner(runner_config());
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run_serial(recs).channels.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(recs.size()));
}
BENCHMARK(bench_engine_16ch_serial)->Unit(benchmark::kMillisecond);

void bench_engine_16ch_pooled(benchmark::State& state) {
  const auto& recs = workload();
  runtime::PipelineRunner runner(runner_config());
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run(recs).channels.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(recs.size()));
}
BENCHMARK(bench_engine_16ch_pooled)->Unit(benchmark::kMillisecond);

void bench_seed_serial_4ch(benchmark::State& state) {
  // Seed path on a quarter workload (it is ~12x slower per channel).
  const auto& recs = workload();
  const std::span<const emg::Recording> quarter(recs.data(), 4);
  const auto cfg = runner_config();
  const sim::EndToEnd reference(cfg.eval, cfg.link);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference.run_datc_batch(quarter, 1).size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4);
}
BENCHMARK(bench_seed_serial_4ch)->Unit(benchmark::kMillisecond);

void bench_encode_block_arena(benchmark::State& state) {
  // Fused block kernel into a reused arena (the engine's encode stage).
  const auto& rec = workload().front();
  core::EventArena arena;
  const core::DatcEncoderConfig cfg;
  for (auto _ : state) {
    arena.clear();
    benchmark::DoNotOptimize(core::encode_datc_events(rec.emg_v, cfg, arena));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rec.emg_v.size()));
}
BENCHMARK(bench_encode_block_arena)->Unit(benchmark::kMillisecond);

void bench_link_decode_1ch(benchmark::State& state) {
  // One channel through modulate + propagate + decode, engine settings.
  const auto& rec = workload().front();
  const auto cfg = runner_config();
  core::EventArena arena;
  core::encode_datc_events(rec.emg_v, emg::datc_encoder_config(cfg.eval),
                           arena);
  const core::EventStream tx = arena.take_stream();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        uwb::run_datc_over_link(tx, cfg.link, cfg.eval.dtc.dac_bits, true)
            .events_rx.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tx.size()));
}
BENCHMARK(bench_link_decode_1ch)->Unit(benchmark::kMillisecond);

void bench_streaming_recon_1ch(benchmark::State& state) {
  // One channel through the streaming reconstructor, whole record.
  const auto& rec = workload().front();
  const auto cfg = runner_config();
  core::EventArena arena;
  core::encode_datc_events(rec.emg_v, emg::datc_encoder_config(cfg.eval),
                           arena);
  const core::EventStream tx = arena.take_stream();
  const emg::Evaluator evaluator(cfg.eval);
  const auto rec_cfg = emg::datc_reconstruction_config(cfg.eval);
  const auto cal = evaluator.datc_calibration();
  std::vector<Real> arv;
  for (auto _ : state) {
    core::StreamingDatcReconstructor recon(rec_cfg, cal);
    recon.push_events(std::span<const core::Event>(tx.events()));
    recon.finish(kDurationS);
    arv.clear();
    recon.drain(arv);
    benchmark::DoNotOptimize(arv.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tx.size()));
}
BENCHMARK(bench_streaming_recon_1ch)->Unit(benchmark::kMillisecond);

void bench_streaming_block_arena_sink(benchmark::State& state) {
  // Same record through the templated block path into an arena.
  const auto& rec = workload().front();
  const core::DatcEncoderConfig cfg;
  core::EventArena arena(4096);
  for (auto _ : state) {
    arena.clear();
    core::StreamingDatcEncoder enc(cfg, rec.emg_v.sample_rate_hz(),
                                   core::ArenaSink{&arena});
    enc.push_block(rec.emg_v.view());
    benchmark::DoNotOptimize(arena.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rec.emg_v.size()));
}
BENCHMARK(bench_streaming_block_arena_sink)->Unit(benchmark::kMillisecond);

void bench_dtc_step_loop(benchmark::State& state) {
  core::Dtc dtc;
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtc.step((k++ / 3) % 4 == 0).set_vth);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bench_dtc_step_loop);

}  // namespace

DATC_BENCH_MAIN(print_runtime_table)
