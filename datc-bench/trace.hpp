#pragma once
// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded only here, around the benchmark's own calls into
// each layer's public functions; the library itself is never touched.
// Every thread keeps its own span buffer and open-span stack (no locking
// on the hot path); buffers are merged after each phase and archived in
// memory, and the archive is written as one trace file at exit. A span's
// self time is its duration minus the part of it its child spans cover,
// and its self allocation count is what its thread allocated while it
// was the innermost open span (see alloc_hook.cpp).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace datc_bench {

/// The repository's modules, as measured layers. The names double as
/// metric prefixes (`core.recon.busy_ms`, ...).
enum class Layer : std::uint8_t {
  kEmg,         ///< emg synthesis
  kConfig,      ///< factory + calibration Monte Carlo
  kEncode,      ///< core.encode: encode_datc_events
  kAerMerge,    ///< uwb.aer_merge
  kAerDemux,    ///< uwb.aer_demux (aer_split)
  kModulate,    ///< uwb.modulate: modulate_datc / modulate_aer
  kChannel,     ///< uwb.channel: propagate
  kReceiver,    ///< uwb.receiver: UwbReceiver::decode
  kRecon,       ///< core.recon: reconstruction
  kScore,       ///< emg.score: ground-truth ARV + correlation
  kSimd,        ///< simd: stage calls re-run under the scalar backend
  kRunner,      ///< runtime.runner: PipelineRunner pass
  kSession,     ///< runtime.session: StreamingSession push/drain
  kWire,        ///< net.wire: frame encode/decode
  kServer,      ///< net.server: the daemon's event-loop thread
  kRecorder,    ///< store.recorder: Recorder offer/flush/close
  kReplay,      ///< store.replay: replay_envelope, LogReader::query
  kCount,
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

[[nodiscard]] const char* layer_name(Layer layer);

/// One finished span. Times are steady_clock nanoseconds.
struct SpanRecord {
  Layer layer{Layer::kCount};
  std::uint32_t thread{0};
  std::int32_t parent{-1};      ///< index of the enclosing span, -1 = none
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::int64_t child_ns{0};     ///< covered by direct children
  std::uint64_t items{0};
  std::uint64_t allocs{0};      ///< made while open, children included
  std::uint64_t bytes{0};
  std::uint64_t child_allocs{0};
  std::uint64_t child_bytes{0};

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
  [[nodiscard]] std::int64_t self_ns() const { return duration_ns() - child_ns; }
};

/// Self time of every span from its interval and parent link alone:
/// duration minus the union of its children's intervals clipped to it.
/// `parent` indexes into `spans`. Used to cross-check the online figure.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(
    std::span<const SpanRecord> spans);

/// Process-wide switch: spans opened while disabled record nothing.
void set_tracing(bool on);
[[nodiscard]] bool tracing();

/// Spans recorded since the last archive_spans(), thread buffers
/// concatenated (`parent` re-based onto the merged vector).
[[nodiscard]] std::vector<SpanRecord> collect_spans();
/// Moves the recorded spans into the run's in-memory archive (the first
/// 100 000 of the run) and empties the thread buffers (call between
/// phases, with no span open).
void archive_spans();
/// Every archived span of the run, for the trace file written at exit.
[[nodiscard]] std::vector<SpanRecord> archived_spans();

/// Writes `spans` as Chrome trace-event JSON ("X" events, µs), with each
/// span's self time, items and allocations in its args.
bool write_trace_json(const std::string& path,
                      std::span<const SpanRecord> spans);

/// RAII span around one call into a layer.
class Span {
 public:
  explicit Span(Layer layer, std::uint64_t items = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void add_items(std::uint64_t n);

 private:
  std::int32_t index_{-1};  ///< slot in the thread buffer; -1 = disabled
};

/// Per-layer totals of self time, items and self allocations.
struct LayerTotals {
  std::int64_t self_ns{0};
  std::uint64_t items{0};
  std::uint64_t allocs{0};
  std::uint64_t bytes{0};
  std::uint64_t spans{0};
};

[[nodiscard]] std::vector<LayerTotals> totals_by_layer(
    std::span<const SpanRecord> spans);

}  // namespace datc_bench
