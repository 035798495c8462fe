#include "stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace datc_bench {

Percentile percentile(std::span<const double> values, double q) {
  Percentile p;
  p.samples = values.size();
  if (values.empty()) return p;
  std::vector<double> v(values.begin(), values.end());
  std::sort(v.begin(), v.end());
  const double clamped = std::clamp(q, 0.0, 100.0);
  auto rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  p.value = v[rank - 1];
  p.beyond = v.size() - rank;
  return p;
}

double median(std::span<const double> values) {
  if (values.empty()) return 0.0;
  std::vector<double> v(values.begin(), values.end());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool bit_equal(std::span<const double> a, std::span<const double> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double x, double y) {
                      return std::bit_cast<std::uint64_t>(x) ==
                             std::bit_cast<std::uint64_t>(y);
                    });
}

void Hasher::add_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

void Hasher::add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

void Hasher::add(std::span<const double> v) {
  add(static_cast<std::uint64_t>(v.size()));
  add_bytes(v.data(), v.size() * sizeof(double));
}

}  // namespace datc_bench
