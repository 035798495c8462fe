#pragma once
// Bit-accurate behavioural model of the Dynamic Threshold Controller
// (Fig. 4). One call to step() is one 2 kHz clock cycle:
//
//   D_in --[In_reg]--> D_out --> event on rising edge
//                       |
//                  ones counter --(end of frame)--> 3-frame history
//                                                   -> weighted average
//                                                   -> interval LUT
//                                                   -> Set_Vth (to DAC)
//
// The RTL netlist in src/rtl/dtc_rtl.hpp is verified cycle-exact against
// this model (the paper's "Verilog results perfectly match the Matlab
// simulation outputs").

#include <cstdint>

#include "core/frame.hpp"
#include "core/interval_table.hpp"
#include "core/predictor.hpp"

namespace datc::core {

struct DtcConfig {
  FrameSize frame{FrameSize::k100};
  unsigned dac_bits{4};
  PredictorWeights weights{};
  PredictorUpdateOrder order{PredictorUpdateOrder::kCountFirst};
  unsigned min_code{1};       ///< Listing 1 never emits a code below 1
  unsigned reset_code{1};     ///< Set_Vth after reset
  Real duty_lo{0.03};         ///< interval table span (Eqn. 2)
  Real duty_hi{0.48};
  bool use_fixed_point{true}; ///< hardware datapath vs float reference
};

/// Outputs of one clock cycle.
struct DtcStep {
  bool d_out{false};         ///< synchronised comparator bit
  bool event{false};         ///< rising edge of d_out -> transmit
  bool end_of_frame{false};  ///< frame boundary this cycle
  unsigned set_vth{0};       ///< DAC code in effect *after* this cycle
};

/// Snapshot of the per-cycle registers, used by the block-mode hot paths
/// to keep the inner loop's state in locals (registers) instead of
/// bouncing through the object on every cycle.
struct DtcCursor {
  bool in_reg{false};
  bool d_out_prev{false};
  std::uint32_t counter{0};
  std::uint32_t cycle_in_frame{0};
  unsigned set_vth{1};
};

class Dtc {
 public:
  explicit Dtc(const DtcConfig& config = {});

  /// Advance one clock cycle with the sampled comparator level.
  DtcStep step(bool d_in);

  // --- block-mode register access (hot paths; see datc_block.hpp) ---

  /// Cycles per frame for the configured FrameSize.
  [[nodiscard]] unsigned frame_len() const { return frame_len_; }
  /// Snapshot the per-cycle registers.
  [[nodiscard]] DtcCursor block_cursor() const;
  /// Write a cursor back into the registers (end of a block run).
  void restore_cursor(const DtcCursor& cur);
  /// Frame boundary in block mode: runs the predictor / interval-table
  /// update with cur.counter (exactly what step() does at end-of-frame),
  /// writes the newly selected level into cur.set_vth and zeroes the frame
  /// counters. The three-frame history lives in the Dtc itself.
  void finish_frame(DtcCursor& cur);

  /// Synchronous reset (the RST pin).
  void reset();

  /// DAC code currently driving the comparator threshold.
  [[nodiscard]] unsigned set_vth() const { return set_vth_; }

  /// Ones seen so far in the current frame.
  [[nodiscard]] std::uint32_t current_count() const { return counter_; }

  /// History registers (N_one3 = newest completed frame).
  [[nodiscard]] std::uint32_t n_one3() const { return n_one3_; }
  [[nodiscard]] std::uint32_t n_one2() const { return n_one2_; }
  [[nodiscard]] std::uint32_t n_one1() const { return n_one1_; }

  [[nodiscard]] const DtcConfig& config() const { return config_; }

 private:
  DtcConfig config_;
  IntervalTable table_;
  unsigned frame_len_;

  // Registers.
  bool in_reg_{false};
  bool d_out_prev_{false};
  std::uint32_t counter_{0};
  std::uint32_t cycle_in_frame_{0};
  std::uint32_t n_one1_{0};
  std::uint32_t n_one2_{0};
  std::uint32_t n_one3_{0};
  unsigned set_vth_{1};

  void update_threshold();
};

}  // namespace datc::core
