#pragma once
// The receiver-side ARV reconstruction (D-ATC rate inversion): the one
// implementation, used incrementally by the streaming sessions and as
// "push everything, then finish" by DatcReconstructor::reconstruct.
//
// For every output index n on the grid t_n = n / fs it computes
//
//   rate[n]  = #events in [t_n - window/2, t_n + window/2) / w_eff
//   vth_sm[n] = centred moving average of the held threshold trajectory
//               over samples [n - h, n + h] (clamped at the record edges)
//   arv[n]   = vth_sm[n] / u_for_rate(rate[n]) * sqrt(2/pi)
//
// in one per-sample loop whose expression order is the naive batch
// formulation's, so the output is bit-identical for any chunking:
//
//   events --> [vector + three cursors: rate lo / rate hi / vth hold,
//               advanced by plain while loops (two-pointer)]
//   vth[j] --> [running prefix sum P in a power-of-two ring of >= 2h + 2
//               entries; t_j = j / fs stored beside it in a ring of
//               >= h + 2, computed once per grid index]
//   u(count) -> [direct-mapped memo by integer window count, used only
//               while w_eff equals the interior width bit for bit — the
//               inverse is a pure function, so a hit returns the
//               identical bits]
//   output[n] emitted once the watermark finalises every input of n
//
// The caller advances a watermark promising that every event with an
// earlier timestamp has been pushed (and that the record lasts at least
// that long); finish() supplies the record duration and drains the tail,
// whose window truncation needs it. Memory is O(window): the two rings,
// the memo and the events the cursors can still revisit.

#include <span>
#include <vector>

#include "core/events.hpp"
#include "core/reconstruct.hpp"

namespace datc::core {

class StreamingDatcReconstructor {
 public:
  StreamingDatcReconstructor(const ReconstructionConfig& config,
                             CalibrationPtr calibration);

  /// Appends the next slice of decoded events (time-sorted continuation
  /// of the stream; may be empty).
  void push_events(std::span<const Event> events);

  /// Promise: every event with time_s < watermark has been pushed, and
  /// watermark does not exceed the final record duration. Emits every
  /// output sample that promise finalises.
  void advance_to(Real watermark);

  /// End of stream: fixes the output length at llround(duration_s *
  /// output_fs_hz) and emits the tail (reserving room for it first).
  void finish(Real duration_s);

  /// Moves the samples emitted since the last drain into `out`.
  void drain(std::vector<Real>& out);
  /// Hands over the samples emitted since the last drain as a vector
  /// (after a lone finish(): the whole envelope, in one allocation).
  [[nodiscard]] std::vector<Real> take();

  /// Output samples emitted so far (global count).
  [[nodiscard]] std::size_t emitted() const { return emit_n_; }
  /// Upper bound on emission latency behind the watermark, in seconds.
  [[nodiscard]] Real latency_s() const;
  /// Working-set size: the rings, the memo, the output buffer and the
  /// retained events — the bounded-memory claim, measurable.
  [[nodiscard]] std::size_t buffered_bytes() const;
  /// Events the cursors can still revisit.
  [[nodiscard]] std::size_t retained_events() const { return ev_.size(); }

  [[nodiscard]] const ReconstructionConfig& config() const { return config_; }

 private:
  ReconstructionConfig config_;
  CalibrationPtr cal_;
  Real fs_;
  Real half_;                   ///< window_s / 2, the rate-window half width
  Real lsb_;
  std::size_t h_{0};            ///< smoothing half window in samples

  std::vector<Event> ev_;       ///< retained events (front = oldest)
  std::size_t lo_{0};           ///< rate window [t_lo, ...) cursor
  std::size_t hi_{0};           ///< rate window [..., t_hi) cursor
  std::size_t vth_next_{0};     ///< vth hold cursor
  Real held_vth_;               ///< reset-code threshold until first event
  Real last_time_{0.0};         ///< sort check across push calls
  bool saw_event_{false};

  /// One allocation: P ring | t ring | u memo.
  std::vector<Real> store_;
  std::size_t p_mask_{0};
  std::size_t t_mask_{0};
  std::size_t vth_count_{0};    ///< grid indices j with P[j + 1] computed

  std::size_t emit_n_{0};       ///< next output index to emit
  Real watermark_;
  bool finished_{false};
  std::size_t n_total_{0};      ///< valid once finished_
  Real duration_;               ///< +inf until finished_
  std::vector<Real> out_buf_;   ///< emitted, not yet drained

  void pump();
};

}  // namespace datc::core
