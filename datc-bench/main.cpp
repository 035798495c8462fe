// datc_bench: runs one named workload and prints its metrics.
//
//   datc_bench --workload <batch-dataset|aer-shared|serve-persist>
//              --seed N --seconds S --trace 0|1 --work-dir DIR
//   datc_bench --list-metrics
//
// Every metric of the run is printed as a `# name value unit` line; the
// last line of stdout is one JSON object {correct, attempted, failed,
// metrics} holding the end-to-end metrics (trace 0) or the per-layer
// metrics (trace 1). Exit status 1 when a correctness gate failed.

#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"

namespace datc_bench {

std::vector<MetricDecl> end_to_end_metrics() {
  return {
      {"setup_s", "s", "lower"},
      {"x_realtime", "x", "higher"},
      {"x_realtime_1t", "x", "higher"},
      {"peak_rss_mb", "MB", "lower"},
  };
}

std::vector<MetricDecl> per_layer_metrics() {
  std::vector<MetricDecl> out;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const std::string l = layer_name(static_cast<Layer>(i));
    out.push_back({l + ".busy_ms", "ms", "lower"});
    out.push_back({l + ".items", "count", "higher"});
    out.push_back({l + ".ns_per_item", "ns", "lower"});
    out.push_back({l + ".allocs", "count", "lower"});
    out.push_back({l + ".share", "ratio", "lower"});
  }
  const std::vector<MetricDecl> extras = {
      {"uwb.channel.erased", "count", "lower"},
      {"uwb.receiver.false_alarms", "count", "lower"},
      {"uwb.aer_merge.dropped", "count", "lower"},
      {"net.server.throttle_events", "count", "lower"},
      {"net.server.frames_bad", "count", "lower"},
      {"store.recorder.retries", "count", "lower"},
      {"store.recorder.drops", "count", "lower"},
      {"store.query_us_p50", "us", "lower"},
      {"simd.speedup.encode", "x", "higher"},
      {"simd.speedup.receiver", "x", "higher"},
      {"simd.speedup.recon", "x", "higher"},
      {"runtime.runner.unattributed_ms", "ms", "lower"},
      {"runtime.pool.efficiency", "ratio", "higher"},
      {"loadgen.late_ms_p99", "ms", "lower"},
      {"trace.coverage", "ratio", "higher"},
      {"trace.overhead_pct", "%", "lower"},
      {"fail_ratio", "ratio", "lower"},
      {"rx_corr_pct", "%", "higher"},
      {"ack_p50_ms.low", "ms", "lower"},
      {"ack_p99_ms.low", "ms", "lower"},
      {"ack_samples.low", "count", "higher"},
      {"ack_p50_ms.high", "ms", "lower"},
      {"ack_p99_ms.high", "ms", "lower"},
      {"ack_samples.high", "count", "higher"},
      {"max_rate_chunks_s", "chunks/s", "higher"},
      {"replay_x_realtime", "x", "higher"},
  };
  out.insert(out.end(), extras.begin(), extras.end());
  return out;
}

bool RunResult::check(bool ok, const std::string& what) {
  attempted += 1;
  if (!ok) {
    failed += 1;
    std::fprintf(stderr, "GATE FAILED: %s\n", what.c_str());
  }
  return ok;
}

void RunResult::add_spans(const std::vector<LayerTotals>& totals, double per) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    layers[i].self_ms += static_cast<double>(totals[i].self_ns) / 1e6 / per;
    layers[i].items += static_cast<double>(totals[i].items) / per;
    layers[i].allocs += static_cast<double>(totals[i].allocs) / per;
    layers[i].alloc_bytes += static_cast<double>(totals[i].bytes) / per;
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace datc_bench

namespace {

using namespace datc_bench;

void print_decls(const char* key, const std::vector<MetricDecl>& decls,
                 bool last) {
  std::printf("  \"%s\": [\n", key);
  for (std::size_t i = 0; i < decls.size(); ++i) {
    std::printf("    {\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}%s\n",
                decls[i].name.c_str(), decls[i].unit.c_str(),
                decls[i].better.c_str(), i + 1 < decls.size() ? "," : "");
  }
  std::printf("  ]%s\n", last ? "" : ",");
}

int usage() {
  std::fprintf(stderr,
               "usage: datc_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR | --list-metrics\n");
  return 2;
}

/// The layer figures of a traced run as `L.busy_ms` ... `L.share`.
void emit_layer_metrics(RunResult& r) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const std::string l = layer_name(static_cast<Layer>(i));
    const LayerFigures& f = r.layers[i];
    r.set(l + ".busy_ms", f.self_ms, "ms");
    r.set(l + ".items", f.items, "count");
    r.set(l + ".ns_per_item", f.items > 0.0 ? f.self_ms * 1e6 / f.items : 0.0,
          "ns");
    r.set(l + ".allocs", f.allocs, "count");
    r.set(l + ".alloc_bytes", f.alloc_bytes, "B");  // printed, not in JSON
    r.set(l + ".share", f.path_ms > 0.0 ? f.self_ms / f.path_ms : 0.0, "ratio");
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's allocator policy. By default the mmap threshold adapts to
  // the first large free, so whether the engine's multi-hundred-KB
  // buffers come from fresh mmap'd (page-faulting) memory or from reused
  // heap depends on thread timing, and a whole run lands in a fast or a
  // ~25 % slower mode at random. Fixed thresholds make every run reuse.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      std::printf("{\n");
      print_decls("end_to_end", end_to_end_metrics(), false);
      print_decls("per_layer", per_layer_metrics(), true);
      std::printf("}\n");
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else {
      return usage();
    }
  }
  if (!have_workload || opt.work_dir.empty() || !(opt.seconds > 0.0)) {
    return usage();
  }
  if (opt.workload == "serve-persist") {
    // The daemon runs dozens of threads; with glibc's per-thread arenas
    // its peak RSS tracked how many arenas lock contention happened to
    // create (14-38 MB run to run), not what the daemon holds. One arena
    // left its throughput and latency unchanged.
    mallopt(M_ARENA_MAX, 1);
  }
  std::filesystem::create_directories(opt.work_dir);

  RunResult r;
  try {
    if (opt.workload == "batch-dataset") {
      run_batch_dataset(opt, r);
    } else if (opt.workload == "aer-shared") {
      run_aer_shared(opt, r);
    } else if (opt.workload == "serve-persist") {
      run_serve_persist(opt, r);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "datc_bench: %s\n", e.what());
    return 1;
  }
  r.set("fail_ratio",
        r.attempted > 0 ? static_cast<double>(r.failed) /
                              static_cast<double>(r.attempted)
                        : 1.0,
        "ratio");
  if (opt.trace) {
    emit_layer_metrics(r);
    const std::string path = opt.work_dir + "/trace-" + opt.workload + ".json";
    if (!write_trace_json(path, archived_spans())) {
      std::fprintf(stderr, "datc_bench: could not write %s\n", path.c_str());
    }
  }

  for (const auto& [name, m] : r.metrics) {
    std::printf("# %-34s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }

  const auto decls = opt.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string json = "{";
  bool first = true;
  for (const MetricDecl& d : decls) {
    double value = 0.0;
    const auto it = r.metrics.find(d.name);
    if (it != r.metrics.end()) {
      value = it->second.value;
    } else if (!opt.trace) {
      r.check(false, "end-to-end metric " + d.name + " not measured");
    }
    if (!std::isfinite(value)) {
      r.check(false, "metric " + d.name + " is not finite");
      value = 0.0;
    }
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.12g", value);
    json += (first ? "\"" : ", \"") + d.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + d.unit + "\"}";
    first = false;
  }
  json += "}";
  const bool correct = r.failed == 0 && r.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
