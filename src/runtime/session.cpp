#include "runtime/session.hpp"

#include <algorithm>
#include <limits>

#include "core/streaming.hpp"
#include "core/streaming_reconstruct.hpp"
#include "dsp/types.hpp"
#include "runtime/thread_pool.hpp"
#include "uwb/aer.hpp"
#include "uwb/link_pipeline.hpp"
#include "uwb/receiver.hpp"

namespace datc::runtime {

namespace {

uwb::LinkConfig with_seed(uwb::LinkConfig link, std::uint64_t seed) {
  link.seed = seed;
  return link;
}

uwb::SharedAerConfig with_cache_detection(uwb::SharedAerConfig shared,
                                          bool cache_detection) {
  shared.cache_detection = cache_detection;
  return shared;
}

}  // namespace

SessionReport session_report_delta(const SessionReport& after,
                                   const SessionReport& before) {
  SessionReport d;
  d.channel = after.channel;
  d.samples_in = after.samples_in - before.samples_in;
  d.events_tx = after.events_tx - before.events_tx;
  d.pulses_tx = after.pulses_tx - before.pulses_tx;
  d.pulses_erased = after.pulses_erased - before.pulses_erased;
  d.events_rx = after.events_rx - before.events_rx;
  d.arv_emitted = after.arv_emitted - before.arv_emitted;
  d.events_quarantined = after.events_quarantined - before.events_quarantined;
  d.arv_held = after.arv_held - before.arv_held;
  d.health_trips = after.health_trips - before.health_trips;
  d.decode = uwb::decode_stats_delta(after.decode, before.decode);
  return d;
}

// ---------------------------------------------------------- EnvelopeStage

void EnvelopeStage::step(std::span<const core::Event> events, bool hold,
                         Real until_s, bool end) {
  if (hold) {
    quarantined_ += events.size();
  } else {
    recon_.push_events(events);
  }
  if (!end) {
    recon_.advance_to(until_s);
  } else if (until_s > 0.0) {
    recon_.finish(until_s);
  }
  const std::size_t before = arv_.size();
  recon_.drain(arv_);
  if (hold) {
    std::fill(arv_.begin() + static_cast<std::ptrdiff_t>(before), arv_.end(),
              last_good_);
    held_ += arv_.size() - before;
  } else if (arv_.size() > before) {
    last_good_ = arv_.back();
  }
}

// ------------------------------------------------------- StreamingSession

StreamingSession::StreamingSession(const SessionConfig& config,
                                   std::uint32_t channel_id)
    : config_(config),
      channel_id_(channel_id),
      encoder_(config.encoder, config.analog_fs_hz,
               core::ArenaSink{&events_chunk_},
               static_cast<std::uint16_t>(channel_id & 0xffffu)),
      // Single-channel frames carry no address field (the channel tag
      // rides on the event struct only): run_datc_over_link's layout.
      link_(with_seed(config.link, config.link.seed ^ channel_id),
            config.encoder.dtc.dac_bits, /*address_bits=*/0,
            config.cache_detection),
      envelope_(config.recon, config.calibration),
      health_(config.health) {
  dsp::require(config_.calibration != nullptr,
               "StreamingSession: null calibration");
}

void StreamingSession::run_link_chunk(Real watermark, bool flush) {
  decoded_chunk_.clear();
  link_.run_chunk(events_chunk_.events(), watermark, flush, decoded_chunk_);
  events_rx_ += decoded_chunk_.size();
  if (config_.keep_rx_events) {
    for (const auto& e : decoded_chunk_.events()) {
      rx_events_.add(e.time_s, e.vth_code, e.channel);
    }
  }
  if (event_tee_ && !decoded_chunk_.empty()) {
    event_tee_(decoded_chunk_.events());
  }

  // Decode health: in private mode the garbage signal is false-alarm
  // code bits (noise decoded as data). The monitor never changes the
  // chain while disabled or healthy, preserving bit-identicality.
  const Real until = flush ? static_cast<Real>(samples_in_) /
                                 config_.analog_fs_hz
                           : link_.event_time_watermark();
  const std::uint64_t bad_bits = link_.decode_stats().false_alarm_bits;
  health_.observe(until, decoded_chunk_.size(),
                  static_cast<std::size_t>(bad_bits - last_bad_bits_));
  last_bad_bits_ = bad_bits;
  envelope_.step(decoded_chunk_.events(), !health_.healthy(), until, flush);
  peak_bytes_ = std::max(peak_bytes_, buffered_bytes());
}

void StreamingSession::push_chunk(std::span<const Real> samples_v) {
  dsp::require(!finished_, "StreamingSession: push_chunk after finish");
  if (samples_v.empty()) return;
  events_chunk_.clear();
  encoder_.push_block(samples_v);
  samples_in_ += samples_v.size();
  // The reconstruction watermark must also bound the (still unknown)
  // final duration, so cap the encoder's clock watermark at the newest
  // sample's record time.
  const Real t_signal =
      static_cast<Real>(samples_in_) / config_.analog_fs_hz;
  run_link_chunk(std::min(encoder_.event_time_watermark(), t_signal),
                 /*flush=*/false);
}

void StreamingSession::finish() {
  if (finished_) return;
  finished_ = true;
  events_chunk_.clear();
  run_link_chunk(std::numeric_limits<Real>::infinity(), /*flush=*/true);
}

SessionReport StreamingSession::report() const {
  SessionReport r;
  r.channel = channel_id_;
  r.samples_in = samples_in_;
  r.events_tx = encoder_.events_emitted();
  r.pulses_tx = link_.pulses_tx();
  r.pulses_erased = link_.pulses_erased();
  r.events_rx = events_rx_;
  r.arv_emitted = envelope_.emitted();
  r.events_quarantined = envelope_.quarantined();
  r.arv_held = envelope_.held();
  r.health_trips = health_.trips();
  r.decode = link_.decode_stats();
  return r;
}

SessionReport StreamingSession::take_delta() {
  const SessionReport now = report();
  const SessionReport d = session_report_delta(now, last_delta_);
  last_delta_ = now;
  return d;
}

std::size_t StreamingSession::buffered_bytes() const {
  return link_.buffered_bytes() + envelope_.buffered_bytes() +
         events_chunk_.capacity() * sizeof(core::Event);
}

// ----------------------------------------------- SharedAerStreamingSession

SharedAerStreamingSession::SharedAerStreamingSession(
    const SessionConfig& config, const uwb::SharedAerConfig& shared,
    std::size_t num_channels)
    : config_(config),
      radio_(config.link, with_cache_detection(shared, config.cache_detection),
             config.encoder.dtc.dac_bits, num_channels),
      demuxed_(num_channels),
      health_(config.health) {
  dsp::require(config_.calibration != nullptr,
               "SharedAerStreamingSession: null calibration");
  dsp::require(num_channels >= 1,
               "SharedAerStreamingSession: need >= 1 channel");
  dsp::require(!shared.ideal_radio,
               "SharedAerStreamingSession: ideal_radio is a batch-only "
               "reference mode");
  channels_.reserve(num_channels);
  for (std::size_t c = 0; c < num_channels; ++c) {
    channels_.push_back(Channel{
        {config_.encoder, config_.analog_fs_hz,
         core::ArenaSink{&events_chunk_}, static_cast<std::uint16_t>(c)},
        {config_.recon, config_.calibration}, {}, 0});
  }
}

void SharedAerStreamingSession::run_link_chunk(Real release_below,
                                               Real recon_watermark_cap,
                                               bool flush) {
  const uwb::AerStats before = radio_.demux_stats();
  const auto& decoded = radio_.run_chunk(release_below, flush, demuxed_);
  if (event_tee_ && !decoded.empty()) event_tee_(decoded.events());
  const uwb::AerStats& demux = radio_.demux_stats();

  // Decode health is link-wide in shared mode: one radio, one monitor,
  // fed demux address errors. Arbitration backlog can push send times
  // past the (still unknown) record end, but the reconstruction watermark
  // must never exceed the final duration: cap it at the newest sample.
  const Real until =
      flush ? static_cast<Real>(samples_in_per_channel_) /
                  config_.analog_fs_hz
            : std::min(radio_.event_time_watermark(), recon_watermark_cap);
  health_.observe(until, demux.sent - before.sent,
                  demux.invalid_address - before.invalid_address);
  const bool hold = !health_.healthy();
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    Channel& ch = channels_[c];
    auto& routed = demuxed_[c];
    ch.events_rx += routed.size();
    if (config_.keep_rx_events) {
      for (const auto& e : routed) {
        ch.rx_events.add(e.time_s, e.vth_code, e.channel);
      }
    }
    ch.envelope.step(routed, hold, until, flush);
    routed.clear();
  }
}

void SharedAerStreamingSession::push_chunk(std::span<const Real> samples_v) {
  dsp::require(!finished_,
               "SharedAerStreamingSession: push_chunk after finish");
  const std::size_t n_ch = channels_.size();
  dsp::require(samples_v.size() % n_ch == 0,
               "SharedAerStreamingSession: chunk must hold the same sample "
               "count for every channel (channel-major)");
  const std::size_t k = samples_v.size() / n_ch;
  if (k == 0) return;
  Real watermark = std::numeric_limits<Real>::infinity();
  for (std::size_t c = 0; c < n_ch; ++c) {
    events_chunk_.clear();
    channels_[c].encoder.push_block(samples_v.subspan(c * k, k));
    radio_.push(c, events_chunk_.events());
    watermark =
        std::min(watermark, channels_[c].encoder.event_time_watermark());
  }
  samples_in_per_channel_ += k;
  const Real t_signal = static_cast<Real>(samples_in_per_channel_) /
                        config_.analog_fs_hz;
  run_link_chunk(std::min(watermark, t_signal), t_signal, /*flush=*/false);
}

void SharedAerStreamingSession::finish() {
  if (finished_) return;
  finished_ = true;
  const Real inf = std::numeric_limits<Real>::infinity();
  run_link_chunk(inf, inf, /*flush=*/true);
}

SessionReport SharedAerStreamingSession::report(std::size_t channel) const {
  dsp::require(channel < channels_.size(),
               "SharedAerStreamingSession: channel out of range");
  const Channel& ch = channels_[channel];
  SessionReport r;
  r.channel = static_cast<std::uint32_t>(channel);
  r.samples_in = samples_in_per_channel_;
  r.events_tx = ch.encoder.events_emitted();
  // The radio is link-wide in shared mode; per-channel pulse counts do
  // not exist (mirrors the batch SharedLinkReport split).
  r.events_rx = ch.events_rx;
  r.arv_emitted = ch.envelope.emitted();
  // Quarantine count and trips are link-wide (one radio, one monitor);
  // held samples are per channel.
  for (const auto& other : channels_) {
    r.events_quarantined += other.envelope.quarantined();
  }
  r.arv_held = ch.envelope.held();
  r.health_trips = health_.trips();
  return r;
}

// --------------------------------------------------------- SessionManager

SessionManager::SessionManager(const Config& config)
    : config_(config),
      pool_(std::make_unique<ThreadPool>(config.jobs)) {
  dsp::require(config_.max_pending_chunks >= 1,
               "SessionManager: need a queue bound of at least 1");
  dsp::require(config_.stall_timeout_s >= 0.0,
               "SessionManager: stall timeout must be non-negative");
  if (config_.stall_timeout_s > 0.0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

SessionManager::~SessionManager() {
  set_held(false);
  try {
    drain();
  } catch (...) {
    // Destruction must not throw; errors were the caller's to collect.
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    cv_watchdog_.notify_all();
  }
  if (watchdog_.joinable()) watchdog_.join();
}

void SessionManager::watchdog_loop() {
  // Polls at a quarter of the timeout: a stall is flagged no later than
  // 1.25 timeouts after it began. The flag is sticky and observational —
  // the chunk is never interrupted (there is no safe way to kill it),
  // the operator just learns which strand is wedged.
  const auto period = std::chrono::duration<double>(
      std::max(config_.stall_timeout_s / 4.0, 1e-3));
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    cv_watchdog_.wait_for(lock, period, [this] { return stopping_; });
    if (stopping_) return;
    const auto now = std::chrono::steady_clock::now();
    for (auto& slot : slots_) {
      if (!slot->running || slot->stall_flagged) continue;
      const std::chrono::duration<double> elapsed = now - slot->run_start;
      if (elapsed.count() > config_.stall_timeout_s) {
        slot->stall_flagged = true;
      }
    }
  }
}

void SessionManager::set_held(bool held, std::size_t grants) {
  std::lock_guard<std::mutex> lock(mu_);
  held_ = held;
  held_grants_ = grants;
  cv_hold_.notify_all();
}

std::size_t SessionManager::jobs() const { return pool_->size(); }

std::size_t SessionManager::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

SessionManager::SessionId SessionManager::add(
    std::unique_ptr<Session> session) {
  dsp::require(session != nullptr, "SessionManager: null session");
  std::lock_guard<std::mutex> lock(mu_);
  auto slot = std::make_unique<Slot>();
  slot->session = std::move(session);
  slots_.push_back(std::move(slot));
  return slots_.size() - 1;
}

Session& SessionManager::session(SessionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  dsp::require(id < slots_.size(), "SessionManager: bad session id");
  dsp::require(slots_[id]->session != nullptr,
               "SessionManager: session was released");
  return *slots_[id]->session;
}

void SessionManager::release(SessionId id) {
  std::unique_lock<std::mutex> lock(mu_);
  dsp::require(id < slots_.size(), "SessionManager: bad session id");
  Slot& slot = *slots_[id];
  dsp::require(slot.queue.empty() && !slot.finish_pending,
               "SessionManager: release with work still queued");
  // The strand may still be between its last session call and marking
  // itself idle; session calls only happen while active, so waiting for
  // !active makes the reset safe (finished sessions are already idle —
  // this wait is a few instructions, not a chunk).
  cv_idle_.wait(lock, [&slot] { return !slot.active; });
  slot.session.reset();
}

void SessionManager::submit_chunk(SessionId id,
                                  std::span<const Real> samples_v) {
  std::unique_lock<std::mutex> lock(mu_);
  dsp::require(id < slots_.size(), "SessionManager: bad session id");
  Slot& slot = *slots_[id];
  dsp::require(slot.session != nullptr,
               "SessionManager: submit to a released session");
  if (slot.quarantined) {
    ++slot.discarded;
    return;
  }
  cv_space_.wait(lock, [&slot, this] {
    return slot.quarantined ||
           slot.queue.size() < config_.max_pending_chunks;
  });
  if (slot.quarantined) {
    ++slot.discarded;
    return;
  }
  slot.queue.emplace_back(samples_v.begin(), samples_v.end());
  schedule_locked(id);
}

void SessionManager::submit_finish(SessionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  dsp::require(id < slots_.size(), "SessionManager: bad session id");
  dsp::require(slots_[id]->session != nullptr,
               "SessionManager: submit to a released session");
  if (slots_[id]->quarantined) return;
  slots_[id]->finish_pending = true;
  schedule_locked(id);
}

SessionManager::SessionHealth SessionManager::health(SessionId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  dsp::require(id < slots_.size(), "SessionManager: bad session id");
  const Slot& slot = *slots_[id];
  SessionHealth h;
  h.quarantined = slot.quarantined;
  h.error = slot.error;
  h.chunks_discarded = slot.discarded;
  h.stall_flagged = slot.stall_flagged;
  return h;
}

std::size_t SessionManager::quarantined_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& slot : slots_) n += slot->quarantined ? 1 : 0;
  return n;
}

void SessionManager::schedule_locked(SessionId id) {
  Slot& slot = *slots_[id];
  if (slot.active) return;  // the running strand will pick the work up
  if (slot.queue.empty() && !slot.finish_pending) return;
  slot.active = true;
  pool_->submit([this, id] { run_strand(id); });
}

void SessionManager::run_strand(SessionId id) {
  Slot* slot_ptr = nullptr;
  {
    // slots_ may grow (reallocate) concurrently; the Slot itself is
    // heap-stable once added.
    std::lock_guard<std::mutex> lock(mu_);
    slot_ptr = slots_[id].get();
  }
  Slot& slot = *slot_ptr;
  while (true) {
    std::vector<Real> chunk;
    bool do_finish = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (slot.queue.empty() && !slot.finish_pending) {
        slot.active = false;
        cv_idle_.notify_all();
        return;
      }
      cv_hold_.wait(lock, [this] { return !held_ || held_grants_ > 0; });
      if (held_) --held_grants_;
      if (!slot.queue.empty()) {
        chunk = std::move(slot.queue.front());
        slot.queue.pop_front();
      } else {
        slot.finish_pending = false;
        do_finish = true;
      }
      slot.running = true;
      slot.run_start = std::chrono::steady_clock::now();
    }
    cv_space_.notify_all();
    try {
      if (do_finish) {
        slot.session->finish();
      } else {
        slot.session->push_chunk(chunk);
      }
      std::lock_guard<std::mutex> lock(mu_);
      slot.running = false;
    } catch (const std::exception& e) {
      quarantine(slot, std::current_exception(), e.what());
      return;
    } catch (...) {
      quarantine(slot, std::current_exception(),
                 "(non-std exception from session)");
      return;
    }
  }
}

void SessionManager::quarantine(Slot& slot, std::exception_ptr err,
                                const char* what) {
  // Fault isolation: the throwing session is retired with its error
  // recorded and its pending work discarded (counted); every other
  // session keeps running. The engine stays alive either way.
  std::lock_guard<std::mutex> lock(mu_);
  slot.running = false;
  if (first_error_ == nullptr) first_error_ = err;
  slot.quarantined = true;
  slot.error = what;
  slot.discarded += slot.queue.size();
  slot.queue.clear();
  slot.finish_pending = false;
  slot.active = false;
  cv_space_.notify_all();
  cv_idle_.notify_all();
}

void SessionManager::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] {
    for (const auto& slot : slots_) {
      if (slot->active || !slot->queue.empty() || slot->finish_pending) {
        return false;
      }
    }
    return true;
  });
  if (config_.rethrow_on_drain && first_error_ != nullptr) {
    const std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

}  // namespace datc::runtime
