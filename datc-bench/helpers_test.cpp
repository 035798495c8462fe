// Tests of the benchmark's own helpers: percentiles with their sample
// support, span self time from nested spans, and open-loop lateness.

#include <gtest/gtest.h>

#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace datc_bench {
namespace {

TEST(Percentile, NearestRankWithSampleCount) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(static_cast<double>(i));
  const Percentile p99 = percentile(v, 99.0);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_TRUE(p99.supported());
  const Percentile p50 = percentile(v, 50.0);
  EXPECT_EQ(p50.value, 500.0);
  EXPECT_EQ(p50.beyond, 500u);
}

TEST(Percentile, TooFewSamplesAreFlagged) {
  const std::vector<double> v = {3.0, 1.0, 2.0};
  const Percentile p99 = percentile(v, 99.0);
  EXPECT_EQ(p99.value, 3.0);
  EXPECT_EQ(p99.beyond, 0u);
  EXPECT_FALSE(p99.supported());
  EXPECT_EQ(percentile({}, 50.0).samples, 0u);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(median(std::vector<double>{5.0, 1.0, 3.0}), 3.0);
  EXPECT_EQ(median(std::vector<double>{4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median(std::vector<double>{}), 0.0);
}

SpanRecord span(int parent, std::int64_t lo, std::int64_t hi) {
  SpanRecord s;
  s.layer = Layer::kRunner;
  s.parent = parent;
  s.start_ns = lo;
  s.end_ns = hi;
  return s;
}

TEST(SelfTime, SpanMinusChildCoverage) {
  // root [0,100) with children [10,30) and [40,70); the second child
  // has its own child [50,60).
  const std::vector<SpanRecord> spans = {span(-1, 0, 100), span(0, 10, 30),
                                         span(0, 40, 70), span(2, 50, 60)};
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 10);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Children recorded on other threads may overlap; their union counts.
  const std::vector<SpanRecord> spans = {span(-1, 0, 100), span(0, 10, 50),
                                         span(0, 30, 80), span(0, 90, 120)};
  EXPECT_EQ(self_times_ns(spans)[0], 100 - 70 - 10);
}

TEST(SelfTime, RecordedSpansMatchOfflineComputation) {
  set_tracing(true);
  {
    Span outer(Layer::kRunner, 1);
    for (int i = 0; i < 3; ++i) {
      Span inner(Layer::kRecon, 10);
      std::vector<int> work(1000, i);
      (void)work;
    }
  }
  set_tracing(false);
  const auto spans = collect_spans();
  archive_spans();
  ASSERT_EQ(spans.size(), 4u);
  const auto self = self_times_ns(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].self_ns(), self[i]);
  }
  const auto totals = totals_by_layer(spans);
  EXPECT_EQ(totals[static_cast<std::size_t>(Layer::kRecon)].items, 30u);
  EXPECT_EQ(totals[static_cast<std::size_t>(Layer::kRecon)].spans, 3u);
}

TEST(OpenLoop, LatencyCountsFromDueTime) {
  const OpenLoopSchedule sched{1000, 250};
  EXPECT_EQ(sched.due_ns(0), 1000);
  EXPECT_EQ(sched.due_ns(4), 2000);
  // Sent 30 ns late, acked 100 ns after the send: 130 ns from due.
  const std::int64_t due = sched.due_ns(2);
  EXPECT_EQ(lateness_ns(due, due + 30), 30);
  EXPECT_EQ(latency_from_due_ns(due, due + 130), 130);
  // Early sends are not negative lateness.
  EXPECT_EQ(lateness_ns(due, due - 5), 0);
}

TEST(BitEqual, ComparesBitPatterns) {
  const std::vector<double> a = {1.0, 0.0};
  EXPECT_TRUE(bit_equal(a, std::vector<double>{1.0, 0.0}));
  EXPECT_FALSE(bit_equal(a, std::vector<double>{1.0, -0.0}));
  EXPECT_FALSE(bit_equal(a, std::vector<double>{1.0}));
}

TEST(Hasher, DistinguishesBitPatterns) {
  Hasher a;
  Hasher b;
  a.add(0.0);
  b.add(-0.0);
  EXPECT_NE(a.value(), b.value());
}

}  // namespace
}  // namespace datc_bench
