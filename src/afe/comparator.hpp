#pragma once
// Analog comparator model (Fig. 1: amplified sEMG vs the DAC threshold).
// Optional hysteresis suppresses chattering near the threshold, and an
// optional metastability model flips the decision with small probability
// when the differential input is inside a resolution window — the failure
// mode the DTC's In_reg synchroniser exists to contain.

#include <optional>

#include "dsp/rng.hpp"
#include "dsp/types.hpp"

namespace datc::afe {

using dsp::Real;

struct ComparatorConfig {
  Real hysteresis_v{0.0};       ///< total hysteresis band (V)
  Real offset_v{0.0};           ///< input-referred offset (V)
  Real metastable_window_v{0.0};  ///< |in - th| below which output may err
  Real metastable_prob{0.0};    ///< error probability inside the window
};

class Comparator {
 public:
  explicit Comparator(const ComparatorConfig& config = {},
                      std::optional<dsp::Rng> rng = std::nullopt);

  /// Returns true when `in_v` exceeds `threshold_v` (with hysteresis
  /// relative to the previous decision).
  [[nodiscard]] bool compare(Real in_v, Real threshold_v);

  void reset();

  [[nodiscard]] const ComparatorConfig& config() const { return config_; }

  // Block-mode register access: the hot paths keep the hysteresis state in
  // a local and write it back once per block.
  [[nodiscard]] bool last_decision() const { return last_; }
  void set_last_decision(bool last) { last_ = last; }

 private:
  ComparatorConfig config_;
  std::optional<dsp::Rng> rng_;
  bool last_{false};
};

}  // namespace datc::afe
