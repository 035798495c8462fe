#pragma once
// Full D-ATC transmitter pipeline (Fig. 1): analog comparator against the
// DAC-generated threshold, the 2 kHz DTC, and event emission on rising
// edges of the synchronised comparator bit. Each event carries the current
// Set_Vth code (the packet of Fig. 2E = event marker + 4 threshold bits).

#include <cstdint>
#include <vector>

#include "afe/comparator.hpp"
#include "afe/dac.hpp"
#include "core/dtc.hpp"
#include "core/events.hpp"
#include "dsp/types.hpp"

namespace datc::core {

struct DatcEncoderConfig {
  DtcConfig dtc{};
  Real clock_hz{2000.0};  ///< fclk = 2 * f_sEMG,max (Nyquist, Sec. III-C)
  Real dac_vref{1.0};     ///< Eqn. 3 reference
  bool rectify_input{true};
  afe::ComparatorConfig comparator{};
};

/// Per-clock-cycle and per-frame diagnostics (what a logic analyser on the
/// DTC would show). Used by the RTL equivalence tests and the benches.
struct DatcTrace {
  std::vector<std::uint8_t> d_out;        ///< one entry per clock cycle
  std::vector<std::uint8_t> set_vth;      ///< code in effect after the cycle
  std::vector<std::uint32_t> frame_ones;  ///< N_one of each completed frame
  std::vector<std::uint8_t> frame_vth;    ///< code chosen at each frame end
};

struct DatcResult {
  EventStream events;
  DatcTrace trace;
  Real clock_hz{2000.0};
  std::size_t num_cycles{0};
  unsigned dac_bits{4};
  Real dac_vref{1.0};

  /// Threshold voltage trajectory (volts, one entry per clock cycle),
  /// reconstructed with the DAC law of Eqn. 3.
  [[nodiscard]] std::vector<Real> vth_voltage() const;
};

/// Per-cycle reference model of the transmitter over a whole record, with
/// the full DatcTrace. The comparator observes the (optionally rectified)
/// analog waveform via linear interpolation at each clock instant — the
/// async comparator sampled by In_reg. The record covers the clock
/// instants at or before its last sample: cycle k runs while
/// (k / clock_hz) * fs <= n - 1.
[[nodiscard]] DatcResult encode_datc(const dsp::TimeSeries& emg_v,
                                     const DatcEncoderConfig& config);

class EventArena;

/// Events-only encode: the whole record as one push_block() of a
/// StreamingDatcEncoder (core/streaming.hpp), read in place. Emits into
/// `arena` (cleared first; storage is reused across records) and returns
/// the event count. The emitted events are bit-identical to
/// encode_datc(...).events — asserted by tests.
std::size_t encode_datc_events(const dsp::TimeSeries& emg_v,
                               const DatcEncoderConfig& config,
                               EventArena& arena);

/// Convenience overload returning a fresh EventStream.
[[nodiscard]] EventStream encode_datc_events(const dsp::TimeSeries& emg_v,
                                             const DatcEncoderConfig& config);

}  // namespace datc::core
