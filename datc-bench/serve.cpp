// The `serve-persist` workload: the `datc serve` daemon over loopback
// with persistence on, driven by an open-loop load generator.
//
// Each generator connection slot (one thread each, kSlots <= nproc)
// streams back-to-back 2 s filtered-noise sessions — HELLO, 64-sample
// DATA chunks, END, a fresh connection per session — on a fixed
// schedule: chunk k of a slot is due at start + k * period whatever
// happened to earlier chunks. A chunk's latency runs from when it was
// due to the CONTROL frame covering it (the CHUNK-ack whose seq reaches
// it, or the session's END-ack), so a stalled daemon or generator is
// charged to every chunk it delays. Phases, in order:
//   low / high   open loop at two fixed offered rates below saturation,
//                against a persisting daemon with 4 workers
//   ladder       the same daemon, open loop up a fixed rate ladder until
//                a step misses the p99 limit or leaves a growing backlog
//   sat1 / sat4  closed loop, a daemon with 1 / 4 workers: as many
//                chunks as the per-connection inflight window admits.
//                Reported as signal-seconds ingested per daemon
//                CPU-second; wall capacity is printed. Both ingest
//                without persistence: at ~1000 sessions/s the host
//                filesystem's file-creation rate, not the daemon, would
//                set (and scatter) the figure.
// After the daemon drains, every stored session is replayed and checked
// bit for bit: served envelope.f64 == direct StreamingSession run on
// the same chunks == store::check_replay_parity.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "config/factory.hpp"
#include "config/scenario.hpp"
#include "core/rate_calibration.hpp"
#include "emg/evaluation.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "runtime/session.hpp"
#include "stats.hpp"
#include "store/log.hpp"
#include "store/recorder.hpp"
#include "store/replay.hpp"

namespace datc_bench {
namespace {

using namespace datc;
using dsp::Real;
namespace wire = net::wire;
namespace fs = std::filesystem;

constexpr std::size_t kChunk = 64;      ///< samples per DATA frame
constexpr std::size_t kSignals = 8;     ///< distinct 2 s session signals
constexpr std::size_t kSlots = 4;       ///< generator threads = connections
constexpr std::size_t kInflight = 4;    ///< daemon per-connection window
constexpr int kSetupReps = 3;
/// Offered rates (aggregate DATA chunks/s). The fixed phases sit well
/// below the ~40k chunks/s the 4-worker daemon sustains closed-loop on a
/// 4-core host; the ladder climbs past it.
constexpr double kLowRate = 400.0;
constexpr double kHighRate = 4000.0;
constexpr std::array<double, 7> kLadder = {4000,  8000,  12000, 16000,
                                           24000, 32000, 48000};
/// A ladder step passes when its p99 stays under this limit.
constexpr double kP99LimitMs = 5.0;
/// The generator spins for the last kSpinNs before a send is due, on
/// slots whose period is at least kSpinMinPeriodNs.
constexpr std::int64_t kSpinNs = 100'000;
constexpr std::int64_t kSpinMinPeriodNs = 1'000'000;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// The scenario every served session and every direct reference run
/// uses: the serve-smoke preset with 64-sample chunks and kSignals
/// channels' worth of distinct noise sources.
config::ScenarioSpec serve_spec(std::uint64_t seed, std::size_t workers,
                                std::size_t shards) {
  config::ScenarioSpec spec = config::make_preset("serve-smoke");
  spec.source.seed += seed;
  spec.source.channels = kSignals;
  spec.session.chunk_samples = kChunk;
  spec.session.jobs = workers;
  spec.serve.shards = shards;
  spec.serve.max_inflight_chunks = kInflight;
  return spec;
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// A daemon on its own thread, CPU time of the event loop sampled.
class Daemon {
 public:
  Daemon(const config::ScenarioSpec& spec, const std::string& dir)
      : server_(net::make_serve_config(spec, dir)),
        loop_([this] { server_.run(); }) {}
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server_.port(); }

  /// CPU seconds the event-loop thread has used so far.
  [[nodiscard]] double loop_cpu_s() {
    clockid_t cid{};
    if (loop_done_ || pthread_getcpuclockid(loop_.native_handle(), &cid) != 0) {
      return loop_cpu_final_;
    }
    return cpu_seconds(cid);
  }

  /// Graceful drain; returns the final stats.
  net::ServerStats stop() {
    if (!loop_done_) {
      loop_cpu_final_ = loop_cpu_s();
      server_.request_stop();
      loop_.join();
      loop_done_ = true;
    }
    return server_.stats();
  }

 private:
  net::Server server_;
  std::thread loop_;
  bool loop_done_{false};
  double loop_cpu_final_{0.0};
};

struct Inputs {
  std::vector<std::vector<Real>> signals;  ///< one session's samples each
  std::vector<std::vector<Real>> direct;   ///< direct StreamingSession ARV
  double session_s{0.0};
};

/// Set-up as a user pays it: factory, calibration Monte Carlo (built
/// fresh each repetition), signal synthesis, and a persisting daemon
/// brought up and shut down.
Inputs set_up(std::uint64_t seed, const std::string& dir) {
  Inputs in;
  std::unique_ptr<config::PipelineFactory> factory;
  {
    Span span(Layer::kConfig, 1);
    factory = std::make_unique<config::PipelineFactory>(serve_spec(seed, 4, 2));
  }
  {
    Span span(Layer::kConfig, 1);
    const auto eval = factory->eval_config();
    const core::RateCalibration cal(
        emg::calibration_config(eval, eval.datc_clock_hz));
    (void)cal;
  }
  for (std::size_t k = 0; k < kSignals; ++k) {
    Span span(Layer::kEmg);
    const dsp::TimeSeries& ts = factory->make_recording(k).emg_v;
    in.signals.emplace_back(ts.samples().begin(), ts.samples().end());
    span.add_items(ts.size());
    in.session_s = ts.duration_s();
  }
  Daemon(factory->spec(), dir).stop();
  return in;
}

/// The direct reference: one StreamingSession per signal on the same
/// 64-sample chunks, teeing decoded events into a Recorder exactly as
/// the daemon does. Spans make this the per-layer view of what one
/// served session costs below the network.
std::vector<Real> direct_session(const config::PipelineFactory& factory,
                                 const std::vector<Real>& signal,
                                 const std::string& dir,
                                 store::Recorder::Stats* totals) {
  fs::create_directories(dir);
  store::Recorder recorder(factory.recorder_config(dir));
  auto session = factory.make_streaming_session(0);
  session->set_event_tee([&recorder](std::span<const core::Event> events) {
    Span span(Layer::kRecorder, events.size());
    recorder.offer(events);
  });
  std::vector<Real> env;
  for (std::size_t at = 0; at < signal.size(); at += kChunk) {
    Span span(Layer::kSession, 1);
    session->push_chunk(std::span<const Real>(
        signal.data() + at, std::min(kChunk, signal.size() - at)));
    session->drain_arv(env);
  }
  {
    Span span(Layer::kSession);
    session->finish();
    session->drain_arv(env);
  }
  {
    Span span(Layer::kRecorder);
    recorder.close();
  }
  const store::Recorder::Stats rs = recorder.stats();
  totals->offered += rs.offered;
  totals->io_retries += rs.io_retries;
  totals->dropped += rs.dropped;
  store::write_manifest(dir, factory.manifest(
                                 static_cast<Real>(signal.size()) /
                                 factory.spec().source.sample_rate_hz));
  store::write_envelope_f64(dir, env);
  return env;
}

// ------------------------------------------------------------ generator

enum class Pace { kOpen, kClosed };

struct LoadSpec {
  Pace pace{Pace::kOpen};
  double rate{0.0};      ///< aggregate DATA chunks/s (open loop)
  double duration_s{1.0};
  std::string tenant;
};

struct StoredSession {
  std::string tenant;
  std::uint64_t id{0};
  std::size_t signal{0};
};

struct LoadResult {
  std::vector<double> ack_ms;   ///< due -> covering ack, acked chunks
  std::vector<double> late_ms;  ///< send lateness against the schedule
  std::uint64_t chunks_sent{0};
  std::uint64_t chunks_acked{0};
  std::uint64_t sessions{0};
  std::uint64_t sessions_failed{0};
  std::uint64_t backlog_end{0};  ///< sent - acked when offering stopped
  std::vector<std::int64_t> covered_ns;  ///< cover time per chunk (closed)
  double daemon_cpu_s{0.0};      ///< daemon threads' CPU over the phase
  std::vector<StoredSession> stored;

  void merge(const LoadResult& o) {
    ack_ms.insert(ack_ms.end(), o.ack_ms.begin(), o.ack_ms.end());
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    chunks_sent += o.chunks_sent;
    chunks_acked += o.chunks_acked;
    sessions += o.sessions;
    sessions_failed += o.sessions_failed;
    backlog_end += o.backlog_end;
    covered_ns.insert(covered_ns.end(), o.covered_ns.begin(),
                      o.covered_ns.end());
    daemon_cpu_s += o.daemon_cpu_s;
    stored.insert(stored.end(), o.stored.begin(), o.stored.end());
  }
  [[nodiscard]] std::uint64_t unacked() const {
    return chunks_sent - chunks_acked;
  }
};

/// One session's connection, as the generator sees it.
struct Conn {
  int fd{-1};
  wire::FrameDecoder decoder;
  std::uint64_t id{0};
  std::size_t signal{0};
  std::vector<std::int64_t> due;  ///< per chunk sent
  std::size_t acked{0};
  bool closed{false};
  bool ok{false};
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("loadgen: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    throw std::runtime_error(std::string("loadgen: connect(): ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  // Kernel receive timestamps: an ack is timed when it reached the
  // socket, not when this thread next woke up to read it.
  ::setsockopt(fd, SOL_SOCKET, SO_TIMESTAMPNS, &one, sizeof one);
  return fd;
}

bool send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t at = 0;
  while (at < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + at, bytes.size() - at, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    at += static_cast<std::size_t>(n);
  }
  return true;
}

/// One generator connection slot: sessions back to back, paced open- or
/// closed-loop, acks read between sends.
class Slot {
 public:
  Slot(std::uint16_t port, const LoadSpec& spec, std::size_t index,
       const Inputs& in, std::int64_t start_ns)
      : port_(port), spec_(spec), index_(index), in_(in), start_ns_(start_ns) {}

  LoadResult run() {
    const std::size_t per_session =
        (in_.signals[0].size() + kChunk - 1) / kChunk;
    const std::int64_t end_ns =
        start_ns_ + static_cast<std::int64_t>(spec_.duration_s * 1e9);
    OpenLoopSchedule sched;
    std::size_t sessions_planned = 0;
    if (spec_.pace == Pace::kOpen) {
      const double slot_rate = spec_.rate / static_cast<double>(kSlots);
      sched.period_ns = static_cast<std::int64_t>(1e9 / slot_rate);
      sched.start_ns = start_ns_ + static_cast<std::int64_t>(
                                       static_cast<double>(index_) * 1e9 /
                                       spec_.rate);
      sessions_planned = std::max<std::size_t>(
          1, static_cast<std::size_t>(spec_.duration_s * slot_rate /
                                      static_cast<double>(per_session)));
    }
    std::uint64_t k = 0;        // slot-wide chunk counter (schedule index)
    std::size_t session = 0;    // sessions started
    std::size_t chunk = 0;      // next chunk within the current session
    bool offering = true;
    std::int64_t drain_deadline = 0;
    std::vector<std::uint8_t> buf;
    for (;;) {
      const std::int64_t now = now_ns();
      // ---- what to send next, and when
      std::int64_t wake = now + 50'000'000;
      bool send_now = false;
      if (offering) {
        if (spec_.pace == Pace::kOpen) {
          // On slots of at most 1000 chunks/s: sleep until just before
          // the due time, then spin (polling acks without blocking), so a
          // slow wake-up does not make the send late. Faster slots would
          // spin all the time and take the daemon's cores; they only sleep.
          const std::int64_t due = sched.due_ns(k);
          send_now = now >= due;
          if (sched.period_ns < kSpinMinPeriodNs) {
            wake = due;
          } else {
            wake = due - now > kSpinNs ? due - kSpinNs : now;
          }
        } else {
          const bool window_open =
              cur_ == nullptr || cur_->due.size() - cur_->acked < kInflight;
          send_now = window_open;
          wake = send_now ? now : wake;
        }
      }
      if (!offering && live() == 0) break;
      if (!offering && now >= drain_deadline) break;
      if (!send_now) {
        wait_readable(std::min(wake, offering ? wake : drain_deadline));
        continue;
      }
      // ---- send the next chunk (opening a session first if needed)
      const std::int64_t due =
          spec_.pace == Pace::kOpen ? sched.due_ns(k) : now;
      if (chunk == 0) {
        if (cur_ != nullptr) end_session(*cur_, buf);
        cur_ = nullptr;
        if (spec_.pace == Pace::kOpen ? session == sessions_planned
                                      : now >= end_ns) {
          offering = false;
          stop_offering(now, drain_deadline);
          continue;
        }
        cur_ = open_session(session++ * kSlots + index_, buf);
        if (cur_ == nullptr) {  // refused: its chunk slots go unused
          k += per_session;
          continue;
        }
      }
      if (cur_->closed) {  // failed mid-session: skip its remaining chunks
        ++k;
        if (++chunk == per_session) chunk = 0;
        continue;
      }
      const std::vector<Real>& sig = in_.signals[cur_->signal];
      const std::size_t at = chunk * kChunk;
      wire::append_data(
          buf, 0, chunk,
          std::span<const Real>(sig.data() + at, std::min(kChunk, sig.size() - at)));
      const std::int64_t sent = now_ns();
      cur_->due.push_back(due);
      if (!send_all(cur_->fd, buf)) fail(*cur_, "send failed");
      buf.clear();
      res_.chunks_sent += 1;
      if (spec_.pace == Pace::kOpen) {
        res_.late_ms.push_back(static_cast<double>(lateness_ns(due, sent)) / 1e6);
      }
      ++k;
      if (++chunk == per_session) chunk = 0;
      wait_readable(now_ns());  // non-blocking: collect acks already in
    }
    for (auto& c : conns_) {
      if (!c->closed) fail(*c, "drain timeout");
    }
    return res_;
  }

 private:
  std::uint16_t port_;
  LoadSpec spec_;
  std::size_t index_;
  const Inputs& in_;
  std::int64_t start_ns_;
  std::vector<std::unique_ptr<Conn>> conns_;
  Conn* cur_{nullptr};  ///< the session being streamed (never erased)
  LoadResult res_;

  [[nodiscard]] std::size_t live() const {
    std::size_t n = 0;
    for (const auto& c : conns_) n += c->closed ? 0 : 1;
    return n;
  }

  void stop_offering(std::int64_t now, std::int64_t& drain_deadline) {
    drain_deadline = now + 5'000'000'000;  // 5 s for the last acks
    res_.backlog_end = 0;
    for (const auto& c : conns_) {
      if (!c->closed) res_.backlog_end += c->due.size() - c->acked;
    }
  }

  Conn* open_session(std::size_t n, std::vector<std::uint8_t>& buf) {
    auto c = std::make_unique<Conn>();
    c->signal = n % kSignals;
    try {
      c->fd = connect_loopback(port_);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      res_.sessions += 1;
      res_.sessions_failed += 1;
      return nullptr;
    }
    res_.sessions += 1;
    wire::HelloBody hello;
    hello.tenant = spec_.tenant;
    wire::append_hello(buf, hello);
    conns_.push_back(std::move(c));
    return conns_.back().get();
  }

  void end_session(Conn& c, std::vector<std::uint8_t>& buf) {
    if (c.closed) return;
    wire::append_end(buf, 0);
    if (!send_all(c.fd, buf)) fail(c, "send failed");
    buf.clear();
  }

  void fail(Conn& c, const char* why = "") {
    if (c.closed) return;
    std::fprintf(stderr, "loadgen: session failed: %s (%zu of %zu chunks acked)\n",
                 why, c.acked, c.due.size());
    c.closed = true;
    ::close(c.fd);
    res_.sessions_failed += 1;
  }

  void cover(Conn& c, std::size_t upto, std::int64_t t) {
    for (; c.acked < upto && c.acked < c.due.size(); ++c.acked) {
      if (spec_.pace == Pace::kOpen) {
        res_.ack_ms.push_back(
            static_cast<double>(latency_from_due_ns(c.due[c.acked], t)) / 1e6);
      } else {
        res_.covered_ns.push_back(t);
      }
      res_.chunks_acked += 1;
    }
  }

  void on_readable(Conn& c) {
    std::array<std::uint8_t, 16384> buf;
    alignas(cmsghdr) std::array<char, CMSG_SPACE(sizeof(timespec))> ctrl;
    // Kernel stamps are CLOCK_REALTIME; shift them onto the steady clock
    // the schedule runs on.
    timespec real{};
    clock_gettime(CLOCK_REALTIME, &real);
    const std::int64_t shift =
        now_ns() - (static_cast<std::int64_t>(real.tv_sec) * 1'000'000'000 +
                    real.tv_nsec);
    for (;;) {
      iovec iov{buf.data(), buf.size()};
      msghdr msg{};
      msg.msg_iov = &iov;
      msg.msg_iovlen = 1;
      msg.msg_control = ctrl.data();
      msg.msg_controllen = ctrl.size();
      const ssize_t n = ::recvmsg(c.fd, &msg, MSG_DONTWAIT);
      if (n > 0) {
        std::int64_t t = now_ns();
        for (cmsghdr* cm = CMSG_FIRSTHDR(&msg); cm != nullptr;
             cm = CMSG_NXTHDR(&msg, cm)) {
          if (cm->cmsg_level == SOL_SOCKET && cm->cmsg_type == SCM_TIMESTAMPNS) {
            timespec ts{};
            std::memcpy(&ts, CMSG_DATA(cm), sizeof ts);
            t = static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
                ts.tv_nsec + shift;
          }
        }
        c.decoder.feed(std::span<const std::uint8_t>(
            buf.data(), static_cast<std::size_t>(n)));
        parse_frames(c, t);
        if (c.closed) return;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      // The daemon closes after the END-ack; a close before it is a failure.
      if (n == 0) fail(c, "connection closed before END-ack");
      return;  // EOF, or EAGAIN: drained for now
    }
  }

  /// Handles every complete CONTROL frame buffered for `c`, as received
  /// at `t` (steady-clock ns).
  void parse_frames(Conn& c, std::int64_t t) {
    wire::Frame frame;
    std::string reason;
    for (;;) {
      const wire::FrameDecoder::Status st = c.decoder.next(&frame, &reason);
      if (st == wire::FrameDecoder::Status::kNeedMore) break;
      if (st != wire::FrameDecoder::Status::kFrame ||
          frame.type != wire::FrameType::kControl) {
        fail(c, "bad frame");
        return;
      }
      const wire::ControlBody& cb = frame.control;
      switch (cb.code) {
        case wire::ControlCode::kHelloAck:
          c.id = cb.value;
          break;
        case wire::ControlCode::kChunkAck:
          cover(c, static_cast<std::size_t>(cb.value) + 1, t);
          break;
        case wire::ControlCode::kEndAck:
          cover(c, c.due.size(), t);
          c.ok = true;
          res_.stored.push_back({spec_.tenant, c.id, c.signal});
          c.closed = true;
          ::close(c.fd);
          return;
        case wire::ControlCode::kError:
          std::fprintf(stderr, "loadgen: server error %llu: %s\n",
                       static_cast<unsigned long long>(cb.value),
                       cb.message.c_str());
          fail(c);
          return;
      }
    }
  }

  /// Reads acks until `until_ns`, with sub-millisecond wake precision
  /// (ppoll) so the open-loop schedule is kept.
  void wait_readable(std::int64_t until_ns) {
    std::vector<pollfd> pfds;
    std::vector<Conn*> order;
    for (auto& c : conns_) {
      if (c->closed) continue;
      pfds.push_back(pollfd{c->fd, POLLIN, 0});
      order.push_back(c.get());
    }
    const std::int64_t wait = std::max<std::int64_t>(0, until_ns - now_ns());
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(wait % 1'000'000'000);
    const int rc = ::ppoll(pfds.empty() ? nullptr : pfds.data(), pfds.size(),
                           &ts, nullptr);
    if (rc <= 0) return;
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if (pfds[i].revents != 0) on_readable(*order[i]);
    }
    std::erase_if(conns_, [this](const std::unique_ptr<Conn>& c) {
      return c->closed && c.get() != cur_;
    });
  }
};

/// Runs one phase from kSlots generator threads. Besides the slots'
/// results it measures the CPU the daemon spent in the phase: process
/// CPU time minus what the generator threads and this thread used.
LoadResult run_load(std::uint16_t port, const LoadSpec& spec, const Inputs& in) {
  const double proc0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const double self0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  const std::int64_t start = now_ns() + 20'000'000;  // all slots aligned
  std::vector<LoadResult> parts(kSlots);
  std::vector<double> gen_cpu(kSlots, 0.0);
  std::exception_ptr error;
  std::mutex error_mu;
  std::vector<std::thread> threads;
  struct Joiner {  // joins on every path, a failed thread start included
    std::vector<std::thread>& threads;
    ~Joiner() {
      for (auto& t : threads) {
        if (t.joinable()) t.join();
      }
    }
  };
  {
    const Joiner joiner{threads};
    for (std::size_t s = 0; s < kSlots; ++s) {
      threads.emplace_back([&, s] {
        const double c0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
        try {
          Slot slot(port, spec, s, in, start);
          parts[s] = slot.run();
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mu);
          if (!error) error = std::current_exception();
        }
        gen_cpu[s] = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - c0;
      });
    }
  }
  if (error) std::rethrow_exception(error);
  LoadResult all;
  for (const auto& p : parts) all.merge(p);
  all.daemon_cpu_s = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - proc0 -
                     (cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - self0);
  for (const double g : gen_cpu) all.daemon_cpu_s -= g;
  return all;
}

double signal_seconds(std::uint64_t chunks, const Inputs& in) {
  return static_cast<double>(chunks * kChunk) /
         (static_cast<double>(in.signals[0].size()) / in.session_s);
}

/// Closed-loop capacity in signal-seconds per wall-second: the median
/// over kWindows equal windows of the phase (first and last dropped, as
/// they hold the ramp-up and the drain), so one scheduler stall on the
/// shared host moves a single window, not the figure.
double capacity_x(const LoadResult& r, const Inputs& in, double phase_s) {
  constexpr int kWindows = 12;
  const double win_s = phase_s / kWindows;
  std::int64_t t0 = 0;
  for (const std::int64_t t : r.covered_ns) {
    if (t0 == 0 || t < t0) t0 = t;
  }
  std::vector<std::uint64_t> bins(kWindows, 0);
  for (const std::int64_t t : r.covered_ns) {
    const auto w = static_cast<std::size_t>(static_cast<double>(t - t0) / 1e9 / win_s);
    if (w < bins.size()) bins[w] += 1;
  }
  std::vector<double> x;
  for (int w = 1; w + 1 < kWindows; ++w) {
    x.push_back(signal_seconds(bins[static_cast<std::size_t>(w)], in) / win_s);
  }
  return median(x);
}

void report_open(const char* tag, const LoadSpec& spec, const LoadResult& r) {
  const Percentile p50 = percentile(r.ack_ms, 50.0);
  const Percentile p99 = percentile(r.ack_ms, 99.0);
  std::printf("# %-8s offered %7.0f chunks/s: %llu chunks, ack p50 %.3f ms, "
              "p99 %.3f ms (%zu samples, %zu beyond%s), backlog %llu, "
              "late p99 %.3f ms\n",
              tag, spec.rate, static_cast<unsigned long long>(r.chunks_sent),
              p50.value, p99.value, p99.samples, p99.beyond,
              p99.supported() ? "" : ": too few for a p99",
              static_cast<unsigned long long>(r.backlog_end),
              percentile(r.late_ms, 99.0).value);
}

}  // namespace

void run_serve_persist(const Options& opt, RunResult& out) {
  const std::string root = opt.work_dir + "/serve-" + std::to_string(opt.seed);
  fs::remove_all(root);

  // ---- set-up, repeated; the first repetition's inputs are kept
  set_tracing(opt.trace);
  std::vector<double> setup_s;
  Inputs in;
  for (int r = 0; r < kSetupReps; ++r) {
    const std::string dir = root + "/setup-" + std::to_string(r);
    const auto t0 = Clock::now();
    Inputs got = set_up(opt.seed, dir);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    if (r == 0) in = std::move(got);
  }
  set_tracing(false);
  out.set("setup_s", median(setup_s), "s");
  if (opt.trace) {
    out.add_spans(totals_by_layer(collect_spans()), kSetupReps);
    archive_spans();
    const double setup_ms = out.layer(Layer::kEmg).self_ms +
                            out.layer(Layer::kConfig).self_ms;
    out.layer(Layer::kEmg).path_ms = setup_ms;
    out.layer(Layer::kConfig).path_ms = setup_ms;
  }

  // ---- direct references (untimed): one StreamingSession per signal
  const config::PipelineFactory factory(serve_spec(opt.seed, 4, 2));
  store::Recorder::Stats recorder_stats;
  for (std::size_t k = 0; k < kSignals; ++k) {
    in.direct.push_back(direct_session(factory, in.signals[k],
                                       root + "/direct/s" + std::to_string(k),
                                       &recorder_stats));
  }

  std::printf("# traffic: %zu-sample chunks, %.1f s sessions, %.1f decoded "
              "events/s per session, offered %.0f / %.0f chunks/s\n",
              kChunk, in.session_s,
              static_cast<double>(recorder_stats.offered) /
                  (static_cast<double>(kSignals) * in.session_s),
              kLowRate, kHighRate);
  const std::string data = root + "/data";
  const double S = opt.seconds;
  LoadResult all;

  // ---- open loop with persistence, four workers; then the ladder
  double server_cpu_s = 0.0;
  std::uint64_t server_chunks = 0;
  LoadResult low;
  LoadResult high;
  double max_rate = 0.0;
  net::ServerStats st;
  {
    Daemon d(serve_spec(opt.seed, 4, 2), data);
    const double cpu0 = d.loop_cpu_s();
    {
      const LoadSpec spec{Pace::kOpen, kLowRate, 0.2 * S, "low"};
      low = run_load(d.port(), spec, in);
      report_open("low", spec, low);
      all.merge(low);
    }
    {
      const LoadSpec spec{Pace::kOpen, kHighRate, 0.2 * S, "high"};
      high = run_load(d.port(), spec, in);
      report_open("high", spec, high);
      all.merge(high);
    }
    server_cpu_s = d.loop_cpu_s() - cpu0;
    server_chunks = low.chunks_sent + high.chunks_sent;
    // Taken after the fixed-rate phases only: how far the ladder climbs,
    // and how many sessions the closed loops keep open at once, varies
    // by run.
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    for (std::size_t i = 0; i < kLadder.size(); ++i) {
      const LoadSpec spec{Pace::kOpen, kLadder[i],
                          0.2 * S / static_cast<double>(kLadder.size()),
                          "ladder" + std::to_string(i)};
      const LoadResult r = run_load(d.port(), spec, in);
      report_open(spec.tenant.c_str(), spec, r);
      all.merge(r);
      const bool ok = r.unacked() == 0 &&
                      percentile(r.ack_ms, 99.0).value <= kP99LimitMs &&
                      r.backlog_end <= 2 * kSlots * kInflight;
      if (!ok) break;
      max_rate = kLadder[i];
    }
    st = d.stop();
  }

  // ---- closed-loop capacity, 1 and 4 workers, without persistence
  const auto capacity = [&](std::size_t workers, std::size_t shards,
                            const char* tag) {
    Daemon d(serve_spec(opt.seed, workers, shards), "");
    const LoadSpec spec{Pace::kClosed, 0.0, 0.2 * S, tag};
    LoadResult r = run_load(d.port(), spec, in);
    d.stop();
    std::printf("# %s: capacity %.1f x realtime (wall), daemon CPU %.3f s\n",
                tag, capacity_x(r, in, spec.duration_s), r.daemon_cpu_s);
    r.stored.clear();  // nothing was persisted
    all.merge(r);
    return signal_seconds(r.chunks_acked, in) / r.daemon_cpu_s;
  };
  const double x1 = capacity(1, 1, "sat1");
  const double x4 = capacity(4, 2, "sat4");

  out.set("x_realtime", x4, "x");
  out.set("x_realtime_1t", x1, "x");
  out.set("ack_p50_ms.low", percentile(low.ack_ms, 50.0).value, "ms");
  out.set("ack_p99_ms.low", percentile(low.ack_ms, 99.0).value, "ms");
  out.set("ack_samples.low", static_cast<double>(low.ack_ms.size()), "count");
  out.set("ack_p50_ms.high", percentile(high.ack_ms, 50.0).value, "ms");
  out.set("ack_p99_ms.high", percentile(high.ack_ms, 99.0).value, "ms");
  out.set("ack_samples.high", static_cast<double>(high.ack_ms.size()), "count");
  out.set("max_rate_chunks_s", max_rate, "chunks/s");
  std::vector<double> late = low.late_ms;
  late.insert(late.end(), high.late_ms.begin(), high.late_ms.end());
  out.set("loadgen.late_ms_p99", percentile(late, 99.0).value, "ms");
  out.set("net.server.throttle_events", static_cast<double>(st.throttle_events),
          "count");
  out.set("net.server.frames_bad", static_cast<double>(st.frames_bad), "count");
  if (opt.trace) {
    // The daemon is not instrumented: its event-loop thread's CPU time
    // over the open-loop phases stands for net.server.
    LayerFigures& srv = out.layer(Layer::kServer);
    srv.self_ms = server_cpu_s * 1e3;
    srv.items = static_cast<double>(server_chunks);
  }

  // ---- gates: every chunk acked, every session stored and bit-exact
  std::printf("# load: %llu chunks sent, %llu acked, %llu sessions, %llu "
              "failed, %zu stored\n",
              static_cast<unsigned long long>(all.chunks_sent),
              static_cast<unsigned long long>(all.chunks_acked),
              static_cast<unsigned long long>(all.sessions),
              static_cast<unsigned long long>(all.sessions_failed),
              all.stored.size());
  out.count(all.chunks_sent, all.unacked());
  out.count(all.sessions, all.sessions_failed);
  out.check(st.sessions_aborted == 0 && st.quarantined_sessions == 0,
            "daemon aborted or quarantined sessions");
  const auto cal = factory.calibration();
  set_tracing(opt.trace);
  const auto t0 = Clock::now();
  std::size_t replayed = 0;
  for (const StoredSession& s : all.stored) {
    const std::string dir =
        data + "/" + s.tenant + "/session-" + std::to_string(s.id);
    store::ReplayResult rr;
    {
      Span span(Layer::kReplay, 1);
      rr = store::replay_envelope(dir, cal);
    }
    out.check(bit_equal(rr.arv, in.direct[s.signal]),
              dir + ": replayed envelope != direct StreamingSession");
    ++replayed;
  }
  const double replay_s = seconds_between(t0, Clock::now());
  set_tracing(false);
  if (opt.trace && replayed > 0) {
    out.add_spans(totals_by_layer(collect_spans()), static_cast<double>(replayed));
    archive_spans();
  }
  out.set("replay_x_realtime",
          static_cast<double>(replayed) * in.session_s / replay_s, "x");
  for (const StoredSession& s : all.stored) {
    const std::string dir =
        data + "/" + s.tenant + "/session-" + std::to_string(s.id);
    out.check(bit_equal(store::read_envelope_f64(dir), in.direct[s.signal]),
              dir + ": served envelope.f64 != direct StreamingSession");
    out.check(store::check_replay_parity(dir, {}, cal).equal,
              dir + ": check_replay_parity failed");
  }

  if (opt.trace) {
    // store.query: windowed reads of the stored logs.
    std::vector<double> query_us;
    for (std::size_t i = 0; i < std::min<std::size_t>(all.stored.size(), 64); ++i) {
      const StoredSession& s = all.stored[i];
      const store::LogReader reader(data + "/" + s.tenant + "/session-" +
                                    std::to_string(s.id));
      const auto q0 = Clock::now();
      const auto ev = reader.query(0.5, 1.0);
      query_us.push_back(seconds_between(q0, Clock::now()) * 1e6);
      (void)ev;
    }
    out.set("store.query_us_p50", median(query_us), "us");

    // Below the network: the direct per-session decomposition (session,
    // recorder, wire) over every signal, per session.
    set_tracing(true);
    int reps = 0;
    const auto deadline = deadline_after(0.1 * S);
    while (reps < 1 || Clock::now() < deadline) {
      for (std::size_t k = 0; k < kSignals; ++k) {
        const std::string dir = root + "/decomp/s" + std::to_string(k);
        fs::remove_all(dir);
        const auto env =
            direct_session(factory, in.signals[k], dir, &recorder_stats);
        out.check(bit_equal(env, in.direct[k]), "direct session not repeatable");
        // The daemon's half of the protocol: parse every DATA frame.
        const std::vector<Real>& sig = in.signals[k];
        std::vector<std::uint8_t> bytes;
        wire::FrameDecoder dec;
        wire::Frame frame;
        std::string reason;
        std::uint64_t bad = 0;
        for (std::size_t at = 0; at < sig.size(); at += kChunk) {
          const std::span<const Real> chunk(sig.data() + at,
                                            std::min(kChunk, sig.size() - at));
          Span span(Layer::kWire, 2);
          bytes.clear();
          wire::append_data(bytes, 1, at / kChunk, chunk);
          dec.feed(bytes);
          const bool ok =
              dec.next(&frame, &reason) == wire::FrameDecoder::Status::kFrame &&
              bit_equal(chunk, frame.data.samples);
          bad += ok ? 0 : 1;
        }
        out.count((sig.size() + kChunk - 1) / kChunk, bad);
      }
      ++reps;
    }
    set_tracing(false);
    const double per = static_cast<double>(reps) * kSignals;
    const auto totals = totals_by_layer(collect_spans());
    archive_spans();
    for (const Layer l : {Layer::kSession, Layer::kRecorder, Layer::kWire}) {
      LayerFigures& f = out.layer(l);
      const auto& t = totals[static_cast<std::size_t>(l)];
      f.self_ms = static_cast<double>(t.self_ns) / 1e6 / per;
      f.items = static_cast<double>(t.items) / per;
      f.allocs = static_cast<double>(t.allocs) / per;
      f.alloc_bytes = static_cast<double>(t.bytes) / per;
    }
    // Every serve layer per served session; shares of their sum.
    LayerFigures& srv = out.layer(Layer::kServer);
    const double sessions_open = static_cast<double>(low.sessions + high.sessions);
    if (sessions_open > 0) {
      srv.self_ms /= sessions_open;
      srv.items /= sessions_open;
    }
    double path = 0.0;
    for (const Layer l : {Layer::kSession, Layer::kRecorder, Layer::kWire,
                          Layer::kServer, Layer::kReplay}) {
      path += out.layer(l).self_ms;
    }
    for (const Layer l : {Layer::kSession, Layer::kRecorder, Layer::kWire,
                          Layer::kServer, Layer::kReplay}) {
      out.layer(l).path_ms = path;
    }
  }
  out.set("store.recorder.retries", static_cast<double>(recorder_stats.io_retries),
          "count");
  out.set("store.recorder.drops", static_cast<double>(recorder_stats.dropped),
          "count");
  out.check(recorder_stats.dropped == 0, "recorder dropped events");
  fs::remove_all(root);
}

}  // namespace datc_bench
