#pragma once
// Small statistics helpers of the benchmark: percentiles that carry
// their sample support, an open-loop schedule with lateness accounting,
// and the bit-exact hash the correctness gates compare.

#include <cstdint>
#include <span>
#include <vector>

namespace datc_bench {

/// A percentile together with how much data backs it: `samples` values
/// in total, `beyond` of them strictly above the reported value's rank.
/// A percentile is supported when at least ten samples lie beyond it.
struct Percentile {
  double value{0.0};
  std::size_t samples{0};
  std::size_t beyond{0};
  [[nodiscard]] bool supported() const { return beyond >= 10; }
};

/// Nearest-rank percentile (q in [0, 100]) of `values`; an empty input
/// gives value 0 with zero samples.
[[nodiscard]] Percentile percentile(std::span<const double> values, double q);

/// Median with the midpoint rule for even counts (0 when empty).
[[nodiscard]] double median(std::span<const double> values);

/// Open-loop send schedule: request k is due at start + k * period,
/// whatever happened to earlier requests.
struct OpenLoopSchedule {
  std::int64_t start_ns{0};
  std::int64_t period_ns{1};
  [[nodiscard]] std::int64_t due_ns(std::uint64_t k) const {
    return start_ns + static_cast<std::int64_t>(k) * period_ns;
  }
};

/// How late a send left against its due time (0 when on time or early).
[[nodiscard]] inline std::int64_t lateness_ns(std::int64_t due_ns,
                                              std::int64_t sent_ns) {
  return sent_ns > due_ns ? sent_ns - due_ns : 0;
}

/// Open-loop latency of one request: from when it was due (not when it
/// was actually sent) to its response, so generator stalls are charged.
[[nodiscard]] inline std::int64_t latency_from_due_ns(std::int64_t due_ns,
                                                      std::int64_t done_ns) {
  return done_ns - due_ns;
}

/// True when both sequences hold the same doubles bit for bit (so -0.0
/// differs from 0.0 and equal NaN payloads match).
[[nodiscard]] bool bit_equal(std::span<const double> a,
                             std::span<const double> b);

/// 64-bit FNV-1a, fed field by field; doubles hash by bit pattern.
class Hasher {
 public:
  void add_bytes(const void* data, std::size_t n);
  void add(std::uint64_t v) { add_bytes(&v, sizeof v); }
  void add(double v);
  void add(std::span<const double> v);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

}  // namespace datc_bench
