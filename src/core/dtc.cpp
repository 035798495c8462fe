#include "core/dtc.hpp"
#include "core/frame.hpp"
#include "core/predictor.hpp"
#include "dsp/types.hpp"


namespace datc::core {

Dtc::Dtc(const DtcConfig& config)
    : config_(config),
      table_(config.dac_bits, config.duty_lo, config.duty_hi),
      frame_len_(frame_cycles(config.frame)) {
  dsp::require(config_.reset_code < table_.num_levels(),
               "Dtc: reset_code exceeds DAC range");
  dsp::require(config_.min_code < table_.num_levels(),
               "Dtc: min_code exceeds DAC range");
  reset();
}

void Dtc::reset() {
  in_reg_ = false;
  d_out_prev_ = false;
  counter_ = 0;
  cycle_in_frame_ = 0;
  n_one1_ = 0;
  n_one2_ = 0;
  n_one3_ = 0;
  set_vth_ = config_.reset_code;
}

void Dtc::update_threshold() {
  Real avr = 0.0;
  switch (config_.order) {
    case PredictorUpdateOrder::kCountFirst: {
      // The just-finished frame participates in the average.
      n_one1_ = n_one2_;
      n_one2_ = n_one3_;
      n_one3_ = counter_;
      avr = config_.use_fixed_point
                ? static_cast<Real>(weighted_average_fixed(
                      config_.weights, n_one3_, n_one2_, n_one1_))
                : weighted_average_float(
                      config_.weights, static_cast<Real>(n_one3_),
                      static_cast<Real>(n_one2_), static_cast<Real>(n_one1_));
      break;
    }
    case PredictorUpdateOrder::kListingLiteral: {
      // Average over the three previously completed frames, then shift the
      // fresh count in (one frame of extra latency).
      avr = config_.use_fixed_point
                ? static_cast<Real>(weighted_average_fixed(
                      config_.weights, n_one3_, n_one2_, n_one1_))
                : weighted_average_float(
                      config_.weights, static_cast<Real>(n_one3_),
                      static_cast<Real>(n_one2_), static_cast<Real>(n_one1_));
      n_one1_ = n_one2_;
      n_one2_ = n_one3_;
      n_one3_ = counter_;
      break;
    }
  }
  set_vth_ = select_level(table_, config_.frame, avr, config_.min_code);
}

DtcCursor Dtc::block_cursor() const {
  return DtcCursor{in_reg_, d_out_prev_, counter_, cycle_in_frame_, set_vth_};
}

void Dtc::restore_cursor(const DtcCursor& cur) {
  in_reg_ = cur.in_reg;
  d_out_prev_ = cur.d_out_prev;
  counter_ = cur.counter;
  cycle_in_frame_ = cur.cycle_in_frame;
  set_vth_ = cur.set_vth;
}

void Dtc::finish_frame(DtcCursor& cur) {
  counter_ = cur.counter;
  update_threshold();
  counter_ = 0;
  cycle_in_frame_ = 0;
  cur.counter = 0;
  cur.cycle_in_frame = 0;
  cur.set_vth = set_vth_;
}

DtcStep Dtc::step(bool d_in) {
  DtcStep out;

  // Everything downstream of In_reg consumes its Q output — the value
  // captured at the *previous* clock edge — which is what the synchroniser
  // exists for. d_in is captured at the end of this cycle.
  const bool d_out = in_reg_;
  out.d_out = d_out;
  out.event = d_out && !d_out_prev_;

  if (d_out) ++counter_;
  ++cycle_in_frame_;

  if (cycle_in_frame_ >= frame_len_) {
    out.end_of_frame = true;
    update_threshold();
    counter_ = 0;
    cycle_in_frame_ = 0;
  }

  d_out_prev_ = d_out;
  in_reg_ = d_in;
  out.set_vth = set_vth_;
  return out;
}

}  // namespace datc::core
