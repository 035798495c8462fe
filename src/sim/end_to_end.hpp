#pragma once
// Full over-the-air pipeline: sEMG -> D-ATC/ATC encoder -> UWB modulator
// -> channel (path loss, erasures, jitter) -> energy-detection receiver ->
// event reconstruction -> envelope estimate. Used by the robustness bench
// (the paper's "artifacts effect is similar to pulse missing" claim) and
// the example applications.

#include <cstdint>
#include <span>
#include <vector>

#include "emg/dataset.hpp"
#include "emg/evaluation.hpp"
#include "uwb/link_pipeline.hpp"
#include "uwb/receiver.hpp"

namespace datc::sim {

using dsp::Real;

struct EndToEndResult {
  emg::SchemeEvaluation tx_side;  ///< scoring with ideal (lossless) link
  emg::SchemeEvaluation rx_side;  ///< scoring after the UWB link
  std::size_t pulses_tx{0};
  std::size_t pulses_erased{0};
  std::size_t events_rx{0};
  uwb::DecodeStats decode{};
};

class EndToEnd {
 public:
  EndToEnd(const emg::EvalConfig& eval, const uwb::LinkConfig& link);

  /// D-ATC over the configured link.
  [[nodiscard]] EndToEndResult run_datc(const emg::Recording& rec) const;

  /// ATC (marker-only packets) over the configured link.
  [[nodiscard]] EndToEndResult run_atc(const emg::Recording& rec,
                                       Real threshold_v) const;

  /// Multi-channel batch: one independent D-ATC link per recording,
  /// channel i seeded with `link().seed ^ i` (so channel 0 reproduces
  /// run_datc exactly). `jobs > 1` shards channels across a thread pool;
  /// the result is bit-identical for any jobs value. This is the
  /// reference-path batch — the high-throughput engine lives in
  /// runtime::PipelineRunner.
  [[nodiscard]] std::vector<EndToEndResult> run_datc_batch(
      std::span<const emg::Recording> recs, std::size_t jobs = 1) const;

  [[nodiscard]] const emg::Evaluator& evaluator() const { return eval_; }
  [[nodiscard]] const uwb::LinkConfig& link() const { return link_; }

 private:
  emg::Evaluator eval_;
  uwb::LinkConfig link_;

  [[nodiscard]] Real score(const emg::Recording& rec,
                           const std::vector<Real>& recon) const;

  [[nodiscard]] EndToEndResult run_datc_link(const emg::Recording& rec,
                                             const uwb::LinkConfig& link) const;
};

}  // namespace datc::sim
