#pragma once
// Direct-form-II-transposed biquad section and cascades. Used by the sEMG
// synthesiser (band-shaping), the analog-front-end models and the receiver
// envelope smoothing.

#include <array>
#include <span>
#include <vector>

#include "dsp/types.hpp"

namespace datc::dsp {

/// Normalised biquad coefficients (a0 == 1):
///   y[n] = b0 x[n] + b1 x[n-1] + b2 x[n-2] - a1 y[n-1] - a2 y[n-2]
struct BiquadCoeffs {
  Real b0{1.0};
  Real b1{0.0};
  Real b2{0.0};
  Real a1{0.0};
  Real a2{0.0};

  /// Magnitude of the frequency response at normalised frequency
  /// w = 2*pi*f/fs (radians/sample).
  [[nodiscard]] Real magnitude_at(Real w) const;

  /// True when both poles lie strictly inside the unit circle.
  [[nodiscard]] bool is_stable() const;
};

/// One stateful biquad section (direct form II transposed — the form with
/// the best numerical behaviour for low-frequency biological signals).
class Biquad {
 public:
  Biquad() = default;
  explicit Biquad(const BiquadCoeffs& c) : c_(c) {}

  [[nodiscard]] Real process(Real x) {
    const Real y = c_.b0 * x + s1_;
    s1_ = c_.b1 * x - c_.a1 * y + s2_;
    s2_ = c_.b2 * x - c_.a2 * y;
    return y;
  }

  void reset() {
    s1_ = 0.0;
    s2_ = 0.0;
  }

  [[nodiscard]] const BiquadCoeffs& coeffs() const { return c_; }

 private:
  BiquadCoeffs c_{};
  Real s1_{0.0};
  Real s2_{0.0};
};

/// A cascade of biquad sections applied in sequence.
class BiquadCascade {
 public:
  BiquadCascade() = default;
  explicit BiquadCascade(std::vector<BiquadCoeffs> sections);

  [[nodiscard]] Real process(Real x) {
    for (auto& s : sections_) x = s.process(x);
    return x;
  }

  /// Filter a whole signal (stateful; call reset() between records).
  [[nodiscard]] std::vector<Real> filter(std::span<const Real> x);

  void reset();

  /// Combined magnitude response at normalised frequency w (rad/sample).
  [[nodiscard]] Real magnitude_at(Real w) const;

  [[nodiscard]] bool is_stable() const;

 private:
  std::vector<Biquad> sections_;
};

}  // namespace datc::dsp
