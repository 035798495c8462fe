#pragma once
// `datc serve`: the fleet-scale ingest daemon. A single poll()-driven
// event loop accepts framed TCP connections (net/wire.hpp), answers
// HELLO handshakes, and feeds decoded DATA chunks into N sharded
// runtime::SessionManagers (session-id hash -> shard), so thousands of
// concurrent sessions ride the same worker pools the offline engines
// use. Decoded events tee into a per-tenant store::Recorder tree and the
// per-chunk envelope is written as `envelope.f64` sidecars — a session
// ingested over the wire is bit-identical to a direct StreamingSession
// run on the same chunks (gated by tests/net_serve_test).
//
// Backpressure: each connection may have at most serve.inflight chunks
// submitted-but-not-reconstructed; past the bound the server stops
// reading that socket, the kernel buffer fills and TCP pushes back on
// the client — bounded memory per connection by construction, and the
// shard queues can never block the event loop (the inflight bound is
// the SessionManager's own queue bound).
//
// Degradation: malformed payloads are skipped and counted; a broken
// length prefix, a sequence gap or a quarantined session ends that one
// connection with a typed CONTROL error while every other session keeps
// streaming. SIGINT/SIGTERM (or request_stop()) drains gracefully:
// accepted work is finished, recorders flushed, envelopes written, then
// the loop exits.

#include <cstdint>
#include <memory>
#include <string>

#include "config/scenario.hpp"
#include "dsp/types.hpp"

namespace datc::net {

using dsp::Real;

struct ServeConfig {
  std::uint16_t port{0};     ///< 0 = ephemeral (read back via port())
  std::size_t shards{2};     ///< SessionManager shard count
  std::size_t max_sessions{4096};      ///< concurrent session cap
  std::size_t max_inflight_chunks{4};  ///< per-connection backpressure bound
  std::size_t jobs{0};  ///< worker threads across all shards; 0 = hardware
  /// Session output root: <output_dir>/<tenant>/session-<id>/ receives
  /// the event log (store::Recorder), manifest.txt and envelope.f64.
  /// Empty = ingest without persistence (bench/stress regime).
  std::string output_dir;
  /// The server's own scenario; HELLOs may also name any built-in
  /// preset. serve.* keys of THIS spec shape the daemon itself.
  config::ScenarioSpec scenario;
};

/// The serve.* + session.jobs keys of `spec` as a daemon config (the
/// factory remains the single pipeline wiring point; serve.* only ever
/// shapes the server).
[[nodiscard]] ServeConfig make_serve_config(const config::ScenarioSpec& spec,
                                            std::string output_dir = "");

struct LatencyStats {
  std::uint64_t count{0};
  Real p50_us{0.0};
  Real p90_us{0.0};
  Real p99_us{0.0};
  Real max_us{0.0};
};

struct ServerStats {
  std::uint64_t connections_accepted{0};
  std::uint64_t connections_closed{0};
  std::uint64_t sessions_opened{0};
  std::uint64_t sessions_finished{0};
  std::uint64_t sessions_aborted{0};  ///< disconnect/seq-gap before END
  std::uint64_t sessions_active{0};
  std::uint64_t chunks_rx{0};
  std::uint64_t samples_rx{0};
  std::uint64_t bytes_rx{0};
  std::uint64_t bytes_tx{0};
  std::uint64_t frames_bad{0};        ///< malformed payloads (skipped)
  std::uint64_t framing_lost{0};      ///< length-prefix violations (closed)
  std::uint64_t seq_duplicates_dropped{0};
  std::uint64_t seq_gap_rejects{0};
  std::uint64_t version_rejects{0};
  std::uint64_t scenario_rejects{0};
  std::uint64_t session_limit_rejects{0};
  std::uint64_t quarantined_sessions{0};
  std::uint64_t throttle_events{0};  ///< inflight bound hits (backpressure)
  /// DATA frame leaving the socket -> its envelope samples reconstructed
  /// (the ingest-path latency the ROADMAP's fleet monitoring cares about).
  LatencyStats chunk_to_envelope;
};

class Server {
 public:
  /// Binds and listens on 127.0.0.1:<port> immediately (clients may
  /// connect before run(); the backlog holds them). Throws on bind
  /// failure or an invalid scenario.
  explicit Server(ServeConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (the ephemeral one when config.port was 0).
  [[nodiscard]] std::uint16_t port() const;

  /// Runs the event loop until a stop request, then drains: every
  /// accepted session is finished, recorders flushed, envelopes
  /// written. Call from a dedicated thread in tests.
  void run();

  /// Thread-safe stop: run() finishes its graceful drain and returns.
  void request_stop();

  /// Routes SIGINT/SIGTERM to request_stop() (the `datc serve` CLI
  /// calls this; tests use request_stop() directly).
  void install_signal_handlers();

  [[nodiscard]] ServerStats stats() const;

  /// Test hook: runtime::SessionManager::set_held on every shard.
  void set_strands_held(bool held, std::size_t grants = 0);

 private:
  friend class ServedSession;  ///< the cpp-local session wrapper
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace datc::net
