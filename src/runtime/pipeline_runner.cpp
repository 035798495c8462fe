#include "runtime/pipeline_runner.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <utility>

#include "core/datc_encoder.hpp"
#include "core/event_arena.hpp"
#include "core/reconstruct.hpp"
#include "core/symbols.hpp"
#include "dsp/stats.hpp"
#include "dsp/types.hpp"
#include "emg/dataset.hpp"
#include "emg/evaluation.hpp"
#include "runtime/session.hpp"
#include "runtime/thread_pool.hpp"
#include "uwb/aer.hpp"
#include "uwb/link_pipeline.hpp"
#include "uwb/modulator.hpp"

namespace datc::runtime {
namespace {

using Clock = std::chrono::steady_clock;

constexpr Real kInf = std::numeric_limits<Real>::infinity();

Real seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<Real>(b - a).count();
}

Real correlation_against(const std::vector<Real>& truth,
                         const std::vector<Real>& recon) {
  const std::size_t n = std::min(truth.size(), recon.size());
  return dsp::correlation_percent(std::span<const Real>(truth.data(), n),
                                  std::span<const Real>(recon.data(), n));
}

/// Where a batch pass's tasks go: the pool, or — for run_serial — a FIFO
/// drained on the calling thread, which is the schedule of a one-worker
/// pool. Tasks may submit further tasks but never wait for one.
class TaskQueue {
 public:
  explicit TaskQueue(ThreadPool* pool) : pool_(pool) {}

  void submit(std::function<void()> task) {
    if (pool_ != nullptr) {
      pool_->submit(std::move(task));
    } else {
      fifo_.push_back(std::move(task));
    }
  }

  /// Critical-path lane: runs ahead of every task already queued.
  void submit_front(std::function<void()> task) {
    if (pool_ != nullptr) {
      pool_->submit_front(std::move(task));
    } else {
      fifo_.push_front(std::move(task));
    }
  }

  /// Returns once every task, including those tasks submitted, has run.
  void run() {
    if (pool_ != nullptr) {
      pool_->wait_idle();
      return;
    }
    while (!fifo_.empty()) {
      auto task = std::move(fifo_.front());
      fifo_.pop_front();
      task();
    }
  }

  /// Threads the tasks run on (1 for the serial FIFO).
  [[nodiscard]] std::size_t workers() const {
    return pool_ != nullptr ? pool_->size() : 1;
  }

 private:
  ThreadPool* pool_;
  std::deque<std::function<void()>> fifo_;
};

/// Reconstructs one channel's decoded (and, when asked, transmitted)
/// stream and scores both against one ground-truth envelope.
void score(const emg::Evaluator& eval, const RunnerConfig& config,
           const emg::Recording& rec, const core::EventStream& tx,
           core::EventStream& events_rx, ChannelReport& out) {
  const Real duration = rec.emg_v.duration_s();
  out.events_rx = events_rx.size();
  const auto truth = eval.ground_truth(rec);
  const auto recon_rx = eval.reconstruct_datc(events_rx, duration);
  out.rx_correlation_pct = correlation_against(truth, recon_rx);
  if (config.score_tx_side) {
    const auto recon_tx = eval.reconstruct_datc(tx, duration);
    out.tx_correlation_pct = correlation_against(truth, recon_tx);
  }
  if (config.keep_rx_events) out.rx_events = std::move(events_rx);
}

/// One shared-radio pass as a dependency-driven task graph. Every channel
/// encodes in parallel; then the radio runs as two serial stages over
/// chunks of one reconstruction window. The TX stage
/// (arbiter release -> modulate -> channel) sends chunk k+1 into one of
/// two air buffers while the RX stage (receiver -> demux) decodes chunk k
/// and hands each channel group's routed events to that group's strand.
/// Strands run one EnvelopeStage per channel, chunks in order, while
/// ground truth and tx-side scoring fill the other workers behind them on
/// the pool's back lane. The radio's chunking and the strands' watermarks
/// change nothing in the output: every stage is chunk-invariant, so the
/// pass equals the whole-stream run_aer_over_link +
/// Evaluator::reconstruct_datc, bit for bit.
class SharedPass {
 public:
  SharedPass(const emg::Evaluator& eval, const RunnerConfig& config,
             std::span<const emg::Recording> recordings, BatchReport& report,
             TaskQueue& tasks)
      : eval_(eval),
        config_(config),
        recs_(recordings),
        report_(report),
        tasks_(tasks),
        tx_(recordings.size()),
        channels_(recordings.size()),
        strands_(std::min(recordings.size(), tasks.workers())),
        recon_config_(emg::datc_reconstruction_config(config.eval)),
        chunk_s_(config.eval.window_s),
        streaming_recon_(config.eval.datc_mode ==
                         core::DatcDecodeMode::kRateInversion),
        radio_(config.link, config.shared, config.eval.dtc.dac_bits,
               recordings.size()),
        pushed_(recordings.size(), 0),
        routed_(recordings.size()) {
    dsp::require(chunk_s_ > 0.0, "PipelineRunner: window_s must be positive");
    const std::size_t n = recs_.size();
    // The buffers that outlive a task are allocated here, on the calling
    // thread, so their memory is reused from pass to pass whichever worker
    // fills them.
    for (std::size_t c = 0; c < n; ++c) {
      Channel& ch = channels_[c];
      ch.truth.reserve(recs_[c].emg_v.size());
      if (streaming_recon_) {
        ch.envelope.emplace(recon_config_, eval_.datc_calibration());
        ch.recon_rx.reserve(static_cast<std::size_t>(
            std::llround(duration(c) * recon_config_.output_fs_hz)));
      }
      end_ = std::max(end_, duration(c));
    }
    for (std::size_t g = 0; g < strands_.size(); ++g) {
      strands_[g].first = g * n / strands_.size();
      strands_[g].last = (g + 1) * n / strands_.size();
    }
  }

  /// Runs the whole pass; returns once every task has run.
  void run() {
    for (std::size_t i = 0; i < recs_.size(); ++i) {
      tasks_.submit([this, i] { encode(i); });
    }
    tasks_.run();
    size_air();
    tasks_.submit_front([this] { send(0); });
    for (std::size_t i = 0; i < recs_.size(); ++i) {
      tasks_.submit([this, i] { score_tx_side(i); });
    }
    tasks_.run();
  }

 private:
  struct Channel {
    std::optional<EnvelopeStage> envelope;  ///< rate inversion only
    core::EventStream rx;  ///< kept for kCodeDuty or keep_rx_events
    std::vector<Real> truth;
    std::vector<Real> recon_rx;
    /// Ground truth and the rx envelope; the second to land scores rx.
    std::atomic<int> parts_left{2};
  };
  /// One radio chunk's routed events for a strand's channels, packed in
  /// one exact-size block: a vector per channel per chunk raised
  /// aer-shared's peak RSS by ~3.5 MB (jobs=1 queues every chunk).
  struct Chunk {
    Real watermark{0.0};
    bool flush{false};
    std::vector<core::Event> events;  ///< channel-major
    std::vector<std::size_t> ends;    ///< per channel, into events

    [[nodiscard]] std::span<const core::Event> of(std::size_t i) const {
      const std::size_t begin = i == 0 ? 0 : ends[i - 1];
      return {events.data() + begin, ends[i] - begin};
    }
  };
  struct Strand {
    std::size_t first{0};
    std::size_t last{0};
    std::mutex mu;
    std::deque<Chunk> queue;
    bool active{false};  ///< a drain task is queued or running
  };

  const emg::Evaluator& eval_;
  const RunnerConfig& config_;
  std::span<const emg::Recording> recs_;
  BatchReport& report_;
  TaskQueue& tasks_;
  std::vector<core::EventStream> tx_;
  std::vector<Channel> channels_;
  std::vector<Strand> strands_;
  core::ReconstructionConfig recon_config_;
  Real chunk_s_;
  bool streaming_recon_;
  Real end_{0.0};  ///< the longest channel's duration

  uwb::SharedAerLink radio_;
  std::size_t sent_{0};              ///< TX stage: chunks sent
  std::vector<std::size_t> pushed_;  ///< TX stage: events pushed per channel
  std::vector<std::vector<core::Event>> routed_;  ///< RX stage, per chunk
  /// The two air buffers; TX fills one while RX decodes the other.
  std::array<uwb::AerAirChunk, 2> air_;
  std::mutex air_mu_;
  std::deque<std::size_t> on_air_;  ///< sent, not yet received, in order
  std::vector<std::size_t> free_air_{1};  ///< the first TX task takes 0
  bool rx_active_{false};  ///< a receive task is queued or running
  bool tx_parked_{false};  ///< TX waits for RX to return a buffer

  Real duration(std::size_t c) const { return recs_[c].emg_v.duration_s(); }

  void encode(std::size_t i) {
    core::EventArena arena;
    core::encode_datc_events(recs_[i].emg_v,
                             emg::datc_encoder_config(config_.eval), arena);
    tx_[i] = arena.take_stream();
    report_.channels[i].channel = static_cast<std::uint32_t>(i);
    report_.channels[i].events_tx = tx_[i].size();
  }

  /// Chunk k's release watermark (k from 1); +inf marks the flush chunk,
  /// the first to reach the longest channel's end.
  [[nodiscard]] Real release_of(std::size_t k) const {
    const Real t = static_cast<Real>(k) * chunk_s_;
    return t < end_ ? t : kInf;
  }

  /// Channel c's events from `from` up to the release watermark.
  [[nodiscard]] std::size_t released_end(std::size_t c, std::size_t from,
                                         Real release) const {
    const auto& ev = tx_[c].events();
    return static_cast<std::size_t>(
        std::partition_point(
            ev.begin() + static_cast<std::ptrdiff_t>(from), ev.end(),
            [release](const core::Event& e) { return e.time_s < release; }) -
        ev.begin());
  }

  /// Sizes both air buffers for the largest chunk, every frame slot a
  /// pulse. This runs on the calling thread, whose allocator then reuses
  /// them pass after pass; grown on the workers instead, they left a
  /// copy in each worker's malloc arena (+3 MB peak RSS on aer-shared).
  void size_air() {
    std::vector<std::size_t> at(recs_.size(), 0);
    std::size_t most = 0;
    for (std::size_t k = 1;; ++k) {
      const Real release = release_of(k);
      std::size_t events = 0;
      for (std::size_t c = 0; c < recs_.size(); ++c) {
        const std::size_t end = released_end(c, at[c], release);
        events += end - at[c];
        at[c] = end;
      }
      most = std::max(most, events);
      if (std::isinf(release)) break;
    }
    const std::size_t slots = uwb::aer_symbols_per_event(
        config_.shared.aer, config_.eval.dtc.dac_bits);
    for (uwb::AerAirChunk& air : air_) {
      if (config_.shared.ideal_radio) {
        air.events.reserve(most);
      } else {
        air.pulses.reserve(most * slots);
      }
    }
  }

  void score_tx_side(std::size_t i) {
    Channel& ch = channels_[i];
    const auto truth = eval_.ground_truth(recs_[i]);
    ch.truth.assign(truth.begin(), truth.end());
    if (config_.score_tx_side) {
      report_.channels[i].tx_correlation_pct = correlation_against(
          ch.truth, eval_.reconstruct_datc(tx_[i], duration(i)));
    }
    part_done(i);
  }

  /// TX stage, one task per chunk: pushes the chunk's events, sends them
  /// into air buffer `b` and queues it to the RX stage. It goes on to the
  /// next chunk while the other buffer is free; otherwise it parks and
  /// the RX stage resumes it with the buffer it returns.
  void send(std::size_t b) {
    const Real release = release_of(++sent_);
    const bool flush = std::isinf(release);
    // Push only what this chunk releases: the arbiter's queues stay
    // chunk-sized.
    for (std::size_t c = 0; c < recs_.size(); ++c) {
      const std::size_t end = released_end(c, pushed_[c], release);
      radio_.push(c, std::span<const core::Event>(tx_[c].events())
                         .subspan(pushed_[c], end - pushed_[c]));
      pushed_[c] = end;
    }
    radio_.send_chunk(release, flush, air_[b]);
    bool wake_rx = false;
    std::optional<std::size_t> next;
    {
      const std::lock_guard<std::mutex> lock(air_mu_);
      on_air_.push_back(b);
      wake_rx = !std::exchange(rx_active_, true);
      if (!flush) {
        if (free_air_.empty()) {
          tx_parked_ = true;
        } else {
          next = free_air_.back();
          free_air_.pop_back();
        }
      }
    }
    if (wake_rx) tasks_.submit_front([this] { receive(); });
    if (next) tasks_.submit_front([this, nb = *next] { send(nb); });
  }

  /// RX stage, a strand over the sent buffers: decodes and routes each
  /// chunk in order, hands it off, and returns its buffer.
  void receive() {
    for (;;) {
      std::size_t b = 0;
      {
        const std::lock_guard<std::mutex> lock(air_mu_);
        if (on_air_.empty()) {
          rx_active_ = false;
          return;
        }
        b = on_air_.front();
        on_air_.pop_front();
      }
      const bool flush = air_[b].flush;
      radio_.receive_chunk(air_[b], routed_);
      hand_off(flush ? kInf : radio_.event_time_watermark(), flush, routed_);
      if (flush) report_radio();
      bool resume = false;
      {
        const std::lock_guard<std::mutex> lock(air_mu_);
        resume = std::exchange(tx_parked_, false);
        if (!resume) free_air_.push_back(b);
      }
      if (resume) tasks_.submit_front([this, b] { send(b); });
    }
  }

  /// Runs after the flush chunk is received: the TX stage has finished.
  void report_radio() {
    SharedLinkReport& out = report_.shared;
    out.arbiter = radio_.arbiter_stats();
    out.demux = radio_.demux_stats();
    out.pulses_tx = radio_.pulses_tx();
    out.pulses_erased = radio_.pulses_erased();
    out.events_rx = radio_.demux_stats().in_events;
    out.decode = radio_.decode_stats();
  }

  void hand_off(Real watermark, bool flush,
                std::vector<std::vector<core::Event>>& routed) {
    for (std::size_t g = 0; g < strands_.size(); ++g) {
      Strand& strand = strands_[g];
      Chunk chunk{watermark, flush, {}, {}};
      std::size_t size = 0;
      for (std::size_t c = strand.first; c < strand.last; ++c) {
        size += routed[c].size();
      }
      chunk.events.reserve(size);
      chunk.ends.reserve(strand.last - strand.first);
      for (std::size_t c = strand.first; c < strand.last; ++c) {
        chunk.events.insert(chunk.events.end(), routed[c].begin(),
                            routed[c].end());
        chunk.ends.push_back(chunk.events.size());
        routed[c].clear();
      }
      bool wake = false;
      {
        const std::lock_guard<std::mutex> lock(strand.mu);
        strand.queue.push_back(std::move(chunk));
        wake = !std::exchange(strand.active, true);
      }
      if (wake) tasks_.submit_front([this, g] { drain(g); });
    }
  }

  void drain(std::size_t g) {
    Strand& strand = strands_[g];
    std::deque<Chunk> batch;
    for (;;) {
      {
        const std::lock_guard<std::mutex> lock(strand.mu);
        if (strand.queue.empty()) {
          strand.active = false;
          return;
        }
        batch.swap(strand.queue);
      }
      // Channel-major over every queued chunk, so each envelope stays in
      // cache across its chunks (with one worker the radio queues them all).
      for (std::size_t c = strand.first; c < strand.last; ++c) {
        for (const Chunk& chunk : batch) {
          step(c, chunk.of(c - strand.first), chunk.watermark, chunk.flush);
        }
      }
      batch.clear();
    }
  }

  /// Feeds one chunk of channel c's decoded events to its envelope; the
  /// watermark is capped at the channel's own duration.
  void step(std::size_t c, std::span<const core::Event> events,
            Real watermark, bool flush) {
    Channel& ch = channels_[c];
    ChannelReport& out = report_.channels[c];
    out.events_rx += events.size();
    if (!streaming_recon_ || config_.keep_rx_events) {
      for (const auto& e : events) ch.rx.add(e.time_s, e.vth_code, e.channel);
    }
    const Real until = std::min(watermark, duration(c));
    if (streaming_recon_) {
      ch.envelope->step(events, /*hold=*/false, until, flush);
      ch.envelope->drain(ch.recon_rx);
    }
    if (!flush) return;
    if (streaming_recon_) {
      ch.envelope.reset();
    } else {
      ch.recon_rx = eval_.reconstruct_datc(ch.rx, until);  // kCodeDuty
    }
    if (config_.keep_rx_events) out.rx_events = std::move(ch.rx);
    part_done(c);
  }

  void part_done(std::size_t c) {
    Channel& ch = channels_[c];
    if (ch.parts_left.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    report_.channels[c].rx_correlation_pct =
        correlation_against(ch.truth, ch.recon_rx);
    ch.truth = {};
    ch.recon_rx = {};
  }
};

}  // namespace

PipelineRunner::PipelineRunner(const RunnerConfig& config)
    : config_(config), eval_(config.eval) {}

PipelineRunner::~PipelineRunner() = default;

std::size_t PipelineRunner::jobs() const {
  return config_.jobs == 0 ? ThreadPool::hardware_threads() : config_.jobs;
}

ChannelReport PipelineRunner::run_channel(const emg::Recording& rec,
                                          std::uint32_t channel_id) const {
  ChannelReport out;
  out.channel = channel_id;

  // Encode once through the fused block kernel into a preallocated arena.
  core::EventArena arena;
  core::encode_datc_events(rec.emg_v, emg::datc_encoder_config(config_.eval),
                           arena);
  const core::EventStream tx = arena.take_stream();
  out.events_tx = tx.size();

  // Private link per channel, seeded deterministically; the detection
  // cache is bit-identical and ~25x cheaper in stage 1.
  uwb::LinkConfig link = config_.link;
  link.seed = config_.link.seed ^ static_cast<std::uint64_t>(channel_id);
  auto link_run = uwb::run_datc_over_link(tx, link, config_.eval.dtc.dac_bits,
                                          /*cache_detection=*/true);
  out.pulses_tx = link_run.pulses_tx;
  out.pulses_erased = link_run.pulses_erased;
  out.decode = link_run.decode;
  score(eval_, config_, rec, tx, link_run.events_rx, out);
  return out;
}

BatchReport PipelineRunner::run_shared(
    std::span<const emg::Recording> recordings, ThreadPool* pool) const {
  BatchReport report;
  report.link_mode = LinkMode::kSharedAer;
  report.channels.resize(recordings.size());
  // An empty batch is a no-op, as in the per-channel mode.
  if (recordings.empty()) return report;
  TaskQueue tasks(pool);
  SharedPass pass(eval_, config_, recordings, report, tasks);
  pass.run();
  return report;
}

BatchReport PipelineRunner::run_batch(
    std::span<const emg::Recording> recordings, ThreadPool* pool) const {
  BatchReport report;
  if (config_.link_mode == LinkMode::kSharedAer) {
    report = run_shared(recordings, pool);
  } else {
    report.channels.resize(recordings.size());
    TaskQueue tasks(pool);
    for (std::size_t i = 0; i < recordings.size(); ++i) {
      tasks.submit([this, &recordings, &report, i] {
        report.channels[i] =
            run_channel(recordings[i], static_cast<std::uint32_t>(i));
      });
    }
    tasks.run();
  }
  for (const auto& rec : recordings) {
    report.emg_seconds_processed += rec.emg_v.duration_s();
  }
  return report;
}

BatchReport PipelineRunner::run(std::span<const emg::Recording> recordings) {
  const std::size_t n_jobs = jobs();
  if (pool_ == nullptr || pool_->size() != n_jobs) {
    pool_ = std::make_unique<ThreadPool>(n_jobs);
  }
  const auto t0 = Clock::now();
  auto report = run_batch(recordings, pool_.get());
  report.wall_seconds = seconds_between(t0, Clock::now());
  return report;
}

BatchReport PipelineRunner::run_serial(
    std::span<const emg::Recording> recordings) const {
  const auto t0 = Clock::now();
  auto report = run_batch(recordings, nullptr);
  report.wall_seconds = seconds_between(t0, Clock::now());
  return report;
}

}  // namespace datc::runtime
