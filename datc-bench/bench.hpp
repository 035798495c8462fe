#pragma once
// Shared vocabulary of the benchmark's workloads: options, the metric
// sheet a run fills, correctness-gate accounting and the per-layer
// figures a traced run produces.

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace datc_bench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

struct Options {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{10.0};
  bool trace{false};
  std::string work_dir;  ///< scratch space the run may write (and empties)
};

struct Metric {
  double value{0.0};
  std::string unit;
};

/// One metric of the benchmark's fixed sheet.
struct MetricDecl {
  std::string name;
  std::string unit;
  std::string better;  ///< "lower" / "higher"
};

/// The end-to-end metrics every workload reports with tracing off.
[[nodiscard]] std::vector<MetricDecl> end_to_end_metrics();
/// The per-layer metrics every workload reports with tracing on (layers
/// a workload does not exercise read 0).
[[nodiscard]] std::vector<MetricDecl> per_layer_metrics();

/// Per-layer figures of one traced run, normalised per pass/phase.
struct LayerFigures {
  double self_ms{0.0};
  double items{0.0};
  double allocs{0.0};
  double alloc_bytes{0.0};
  /// Denominator of `share`: the timed path the layer's time belongs to
  /// (0 = the layer is not on a timed path; share reads 0).
  double path_ms{0.0};
};

struct RunResult {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::map<std::string, Metric> metrics;
  std::array<LayerFigures, kLayerCount> layers{};

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts one correctness check; a failure is reported on stderr.
  bool check(bool ok, const std::string& what);
  /// Counts `n` attempted operations of which `bad` failed.
  void count(std::uint64_t n, std::uint64_t bad) {
    attempted += n;
    failed += bad;
  }
  LayerFigures& layer(Layer l) { return layers[static_cast<std::size_t>(l)]; }
  /// Adds span totals divided by `per` (passes, reps) to the figures.
  void add_spans(const std::vector<LayerTotals>& totals, double per);
};

/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

void run_batch_dataset(const Options& opt, RunResult& out);
void run_aer_shared(const Options& opt, RunResult& out);
void run_serve_persist(const Options& opt, RunResult& out);

}  // namespace datc_bench
