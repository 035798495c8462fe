#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

#include "alloc_counts.hpp"

namespace datc_bench {
namespace {

// Thread-local only: a shared atomic here would serialise every
// allocation of the parallel passes and distort what is measured.
thread_local std::uint64_t tl_allocs = 0;
thread_local std::uint64_t tl_bytes = 0;

std::atomic<bool> g_tracing{false};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One thread's spans and open-span stack. Owned by the registry so the
/// spans outlive the thread that recorded them.
struct ThreadBuffer {
  std::uint32_t thread{0};
  std::vector<SpanRecord> spans;
  std::vector<std::int32_t> open;  ///< indices of open spans, innermost last
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::vector<SpanRecord> archive;  ///< spans of finished phases
};

Registry& registry() {
  static Registry r;
  return r;
}

ThreadBuffer& thread_buffer() {
  thread_local ThreadBuffer* buf = nullptr;
  if (buf == nullptr) {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    r.buffers.push_back(std::make_unique<ThreadBuffer>());
    buf = r.buffers.back().get();
    buf->thread = static_cast<std::uint32_t>(r.buffers.size());
  }
  return *buf;
}

}  // namespace

void note_alloc(std::size_t bytes) noexcept {
  tl_allocs += 1;
  tl_bytes += bytes;
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kEmg: return "emg";
    case Layer::kConfig: return "config";
    case Layer::kEncode: return "core.encode";
    case Layer::kAerMerge: return "uwb.aer_merge";
    case Layer::kAerDemux: return "uwb.aer_demux";
    case Layer::kModulate: return "uwb.modulate";
    case Layer::kChannel: return "uwb.channel";
    case Layer::kReceiver: return "uwb.receiver";
    case Layer::kRecon: return "core.recon";
    case Layer::kScore: return "emg.score";
    case Layer::kSimd: return "simd";
    case Layer::kRunner: return "runtime.runner";
    case Layer::kSession: return "runtime.session";
    case Layer::kWire: return "net.wire";
    case Layer::kServer: return "net.server";
    case Layer::kRecorder: return "store.recorder";
    case Layer::kReplay: return "store.replay";
    case Layer::kCount: break;
  }
  return "?";
}

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

Span::Span(Layer layer, std::uint64_t items) {
  if (!tracing()) return;
  // The recorder's own allocations (buffer set-up and growth) are
  // charged to no span, or an open parent's count would depend on
  // where in a run the buffer happened to grow.
  const std::uint64_t allocs0 = tl_allocs;
  const std::uint64_t bytes0 = tl_bytes;
  ThreadBuffer& buf = thread_buffer();
  if (buf.spans.size() == buf.spans.capacity()) {
    buf.spans.reserve(std::max<std::size_t>(1024, buf.spans.size() * 2));
  }
  if (buf.open.size() == buf.open.capacity()) {
    buf.open.reserve(std::max<std::size_t>(16, buf.open.size() * 2));
  }
  tl_allocs = allocs0;
  tl_bytes = bytes0;
  SpanRecord rec;
  rec.layer = layer;
  rec.thread = buf.thread;
  rec.parent = buf.open.empty() ? -1 : buf.open.back();
  rec.items = items;
  index_ = static_cast<std::int32_t>(buf.spans.size());
  buf.spans.push_back(rec);
  buf.open.push_back(index_);
  buf.spans.back().allocs = tl_allocs;
  buf.spans.back().bytes = tl_bytes;
  buf.spans.back().start_ns = now_ns();
}

Span::~Span() {
  if (index_ < 0) return;
  const std::int64_t end = now_ns();
  const std::uint64_t allocs = tl_allocs;
  const std::uint64_t bytes = tl_bytes;
  ThreadBuffer& buf = thread_buffer();
  SpanRecord& rec = buf.spans[static_cast<std::size_t>(index_)];
  rec.end_ns = end;
  rec.allocs = allocs - rec.allocs;
  rec.bytes = bytes - rec.bytes;
  buf.open.pop_back();
  if (rec.parent >= 0) {
    SpanRecord& parent = buf.spans[static_cast<std::size_t>(rec.parent)];
    parent.child_ns += rec.duration_ns();
    parent.child_allocs += rec.allocs;
    parent.child_bytes += rec.bytes;
  }
}

void Span::add_items(std::uint64_t n) {
  if (index_ < 0) return;
  thread_buffer().spans[static_cast<std::size_t>(index_)].items += n;
}

std::vector<SpanRecord> collect_spans() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  std::vector<SpanRecord> out;
  for (const auto& buf : r.buffers) {
    const auto base = static_cast<std::int32_t>(out.size());
    for (SpanRecord rec : buf->spans) {
      if (rec.parent >= 0) rec.parent += base;
      out.push_back(rec);
    }
  }
  return out;
}

void archive_spans() {
  // Caps the trace file at ~15 MB; spans past the cap still fed the
  // per-layer totals, which are taken before archiving. Parents precede
  // their children, so any prefix keeps every kept span's parent.
  constexpr std::size_t kMaxArchived = 100'000;
  std::vector<SpanRecord> spans = collect_spans();
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  const auto base = static_cast<std::int32_t>(r.archive.size());
  for (SpanRecord& rec : spans) {
    if (r.archive.size() >= kMaxArchived) break;
    if (rec.parent >= 0) rec.parent += base;
    r.archive.push_back(rec);
  }
  for (auto& buf : r.buffers) {
    buf->spans.clear();
    buf->open.clear();
  }
}

std::vector<SpanRecord> archived_spans() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  return r.archive;
}

std::vector<std::int64_t> self_times_ns(std::span<const SpanRecord> spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    iv.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t a = std::max(lo, spans[c].start_ns);
      const std::int64_t b = std::min(hi, spans[c].end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = a;
      run_hi = b;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::vector<LayerTotals> totals_by_layer(std::span<const SpanRecord> spans) {
  std::vector<LayerTotals> out(kLayerCount);
  for (const SpanRecord& s : spans) {
    if (s.layer == Layer::kCount) continue;
    LayerTotals& t = out[static_cast<std::size_t>(s.layer)];
    t.self_ns += s.self_ns();
    t.items += s.items;
    t.allocs += s.allocs - s.child_allocs;
    t.bytes += s.bytes - s.child_bytes;
    t.spans += 1;
  }
  return out;
}

bool write_trace_json(const std::string& path,
                      std::span<const SpanRecord> spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t t0 = 0;
  for (const SpanRecord& s : spans) {
    if (t0 == 0 || s.start_ns < t0) t0 = s.start_ns;
  }
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(
        f,
        "{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,"
        "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"self_us\":%.3f,"
        "\"items\":%llu,\"allocs\":%llu,\"bytes\":%llu}}%s\n",
        layer_name(s.layer), s.thread,
        static_cast<double>(s.start_ns - t0) / 1e3,
        static_cast<double>(s.duration_ns()) / 1e3,
        static_cast<double>(s.self_ns()) / 1e3,
        static_cast<unsigned long long>(s.items),
        static_cast<unsigned long long>(s.allocs - s.child_allocs),
        static_cast<unsigned long long>(s.bytes - s.child_bytes),
        i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace datc_bench
