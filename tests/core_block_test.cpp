// Block-mode hot paths: the fused encode kernel behind the streaming
// encoder (and so behind encode_datc_events) must be bit-identical to the
// per-cycle reference encode_datc for any chunking and any record length.

#include <gtest/gtest.h>

#include "core/datc_encoder.hpp"
#include "core/dtc.hpp"
#include "core/event_arena.hpp"
#include "core/streaming.hpp"
#include "emg/dataset.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

dsp::TimeSeries test_signal(std::uint64_t seed, Real duration_s = 4.0,
                            Real gain_v = 0.35) {
  emg::RecordingSpec spec;
  spec.seed = seed;
  spec.gain_v = gain_v;
  spec.duration_s = duration_s;
  return emg::make_recording(spec).emg_v;
}

void expect_same_events(const core::EventStream& a, const core::EventStream& b,
                        const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bit-identical, not merely close: the block kernel must evaluate the
    // same expressions as the reference.
    EXPECT_EQ(a[i].time_s, b[i].time_s) << label << " i=" << i;
    EXPECT_EQ(a[i].vth_code, b[i].vth_code) << label << " i=" << i;
  }
}

class BlockEncodeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BlockEncodeTest, EventsOnlyFastPathMatchesReference) {
  // 10000..10004 samples: every residue of the length mod 5 at
  // 2.5 kHz / 2 kHz, so the record tail lands on, just after and between
  // clock instants.
  const auto full = test_signal(GetParam(), 4.01);
  ASSERT_GE(full.size(), 10004u);
  const core::DatcEncoderConfig cfg;
  for (std::size_t n = 10000; n < 10005; ++n) {
    const dsp::TimeSeries sig(
        std::vector<Real>(full.samples().begin(),
                          full.samples().begin() + static_cast<long>(n)),
        full.sample_rate_hz());
    const auto reference = core::encode_datc(sig, cfg);
    const auto fast = core::encode_datc_events(sig, cfg);
    SCOPED_TRACE("n=" + std::to_string(n));
    expect_same_events(fast, reference.events, "encode_datc_events");

    core::EventArena arena;
    core::StreamingDatcEncoder enc(cfg, sig.sample_rate_hz(),
                                   core::ArenaSink{&arena});
    enc.push_block(sig.view());
    EXPECT_EQ(enc.cycles(), reference.num_cycles);
  }
}

TEST_P(BlockEncodeTest, ArenaReusedAcrossRecordsMatchesReference) {
  const core::DatcEncoderConfig cfg;
  core::EventArena arena;
  for (const std::uint64_t seed : {GetParam(), GetParam() + 100}) {
    const auto sig = test_signal(seed, 2.0);
    const auto reference = core::encode_datc(sig, cfg);
    const std::size_t n = core::encode_datc_events(sig, cfg, arena);
    EXPECT_EQ(n, arena.size());
    expect_same_events(arena.to_stream(), reference.events, "arena reuse");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockEncodeTest,
                         ::testing::Values(3, 17, 42, 99));

TEST(BlockEncode, HysteresisAndOffsetComparator) {
  const auto sig = test_signal(7);
  core::DatcEncoderConfig cfg;
  cfg.comparator.hysteresis_v = 0.04;
  cfg.comparator.offset_v = -0.01;
  const auto reference = core::encode_datc(sig, cfg);
  const auto fast = core::encode_datc_events(sig, cfg);
  expect_same_events(fast, reference.events, "hysteresis+offset");
}

TEST(BlockEncode, NonDefaultFrameAndDacBits) {
  const auto sig = test_signal(11);
  core::DatcEncoderConfig cfg;
  cfg.dtc.frame = core::FrameSize::k200;
  cfg.dtc.dac_bits = 5;
  const auto reference = core::encode_datc(sig, cfg);
  const auto fast = core::encode_datc_events(sig, cfg);
  expect_same_events(fast, reference.events, "frame50 dac5");
}

TEST(BlockEncode, EmptySignal) {
  core::EventArena arena;
  EXPECT_EQ(core::encode_datc_events(dsp::TimeSeries{},
                                     core::DatcEncoderConfig{}, arena),
            0u);
}

TEST(StreamingBlockPath, ArenaSinkOddChunksMatchBatch) {
  const auto sig = test_signal(23);
  const core::DatcEncoderConfig cfg;
  const auto batch = core::encode_datc(sig, cfg);

  core::EventArena arena;
  core::StreamingDatcEncoder enc(cfg, sig.sample_rate_hz(),
                                 core::ArenaSink{&arena});
  // Feed deliberately awkward chunk sizes (1, prime, large, remainder).
  const auto& x = sig.samples();
  std::size_t i = 0;
  const std::size_t chunks[] = {1, 7, 97, 1003, 4096};
  std::size_t c = 0;
  while (i < x.size()) {
    const std::size_t len = std::min(chunks[c % 5], x.size() - i);
    enc.push_block(std::span<const Real>(x.data() + i, len));
    i += len;
    ++c;
  }
  expect_same_events(arena.to_stream(), batch.events, "odd chunks");
  EXPECT_EQ(enc.cycles(), batch.num_cycles);
  EXPECT_EQ(enc.events_emitted(), batch.events.size());
}

TEST(StreamingBlockPath, BlockMatchesSampleBySample) {
  const auto sig = test_signal(31, 2.0);
  const core::DatcEncoderConfig cfg;

  core::EventArena by_sample;
  core::StreamingDatcEncoder ea(cfg, sig.sample_rate_hz(),
                                core::ArenaSink{&by_sample});
  for (const Real v : sig.samples()) ea.push(v);

  core::EventArena by_block;
  core::StreamingDatcEncoder eb(cfg, sig.sample_rate_hz(),
                                core::ArenaSink{&by_block});
  eb.push_block(sig.view());

  expect_same_events(by_block.to_stream(), by_sample.to_stream(),
                     "block vs sample");
}

TEST(StreamingBlockPath, MetastableComparatorFallsBackToReference) {
  // A stochastic comparator forces the per-cycle path; behaviour must stay
  // deterministic given the comparator's own Rng... the streaming encoder
  // constructs the comparator without an Rng, so metastable_prob > 0 throws
  // from the Comparator precondition. Assert the precondition holds.
  core::DatcEncoderConfig cfg;
  cfg.comparator.metastable_prob = 0.5;
  cfg.comparator.metastable_window_v = 0.01;
  EXPECT_THROW(core::encode_datc_events(test_signal(1, 1.0), cfg),
               std::invalid_argument);
}

TEST(EventArena, ReserveAndReuse) {
  core::EventArena arena(128);
  EXPECT_GE(arena.capacity(), 128u);
  const auto* data_before = arena.events().data();
  for (int i = 0; i < 100; ++i) {
    arena(core::Event{static_cast<Real>(i), 1, 0});
  }
  EXPECT_EQ(arena.size(), 100u);
  EXPECT_EQ(arena.events().data(), data_before) << "no reallocation expected";
  arena.clear();
  EXPECT_TRUE(arena.empty());
  EXPECT_GE(arena.capacity(), 128u) << "clear keeps the allocation";
  auto stream = arena.take_stream();
  EXPECT_TRUE(stream.empty());
}

TEST(EventStream, ReserveAndTake) {
  core::EventStream s;
  s.reserve(64);
  EXPECT_GE(s.capacity(), 64u);
  s.add(0.25, 3);
  auto v = s.take();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].vth_code, 3);
}

}  // namespace
