#include "core/streaming_reconstruct.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

#include "core/reconstruct.hpp"
#include "dsp/types.hpp"

namespace datc::core {

namespace {

/// Slots of the direct-mapped calibration-inverse memo (count mod slots).
/// The window count drifts by a few events per sample, so the counts in
/// play share no slot unless they span more than this many values.
constexpr std::size_t kMemoSlots = 64;

/// First index at which the monotone (true..true, false..false) grid
/// predicate `holds` fails, walked to from a floating-point estimate. Every
/// probe evaluates the exact expression the emit loop uses, so the answer
/// is exact; the estimate only saves steps (it is off by one or two).
template <class Holds>
std::size_t first_failing(Real estimate, Holds&& holds) {
  std::size_t i =
      estimate > 0.0 ? static_cast<std::size_t>(std::min(estimate, 1e18)) : 0;
  while (i > 0 && !holds(i - 1)) --i;
  while (holds(i)) ++i;
  return i;
}

}  // namespace

StreamingDatcReconstructor::StreamingDatcReconstructor(
    const ReconstructionConfig& config, CalibrationPtr calibration)
    : config_(config),
      cal_(std::move(calibration)),
      fs_(config.output_fs_hz),
      half_(config.window_s / 2.0),
      lsb_(config.dac_vref / static_cast<Real>(1u << config.dac_bits)),
      watermark_(-std::numeric_limits<Real>::infinity()),
      duration_(std::numeric_limits<Real>::infinity()) {
  dsp::require(cal_ != nullptr, "StreamingDatcReconstructor: null calibration");
  dsp::require(config_.window_s > 0.0 && config_.output_fs_hz > 0.0,
               "StreamingDatcReconstructor: parameters must be positive");
  const std::size_t w = std::max<std::size_t>(
      static_cast<std::size_t>(
          std::llround(config_.window_s * config_.output_fs_hz)),
      1);
  h_ = w / 2;
  // Live spans: P[emit - h .. emit + h + 1] and t[emit .. emit + h].
  const std::size_t p_size = std::bit_ceil(2 * h_ + 2);
  const std::size_t t_size = std::bit_ceil(h_ + 2);
  p_mask_ = p_size - 1;
  t_mask_ = t_size - 1;
  store_.assign(p_size + t_size + 2 * kMemoSlots, 0.0);  // P[0] = 0
  // Memo slots are (count, u) pairs; key -1 marks an empty slot.
  for (std::size_t i = p_size + t_size; i < store_.size(); i += 2) {
    store_[i] = -1.0;
  }
  // Until the first event arrives the receiver assumes the reset code (1).
  held_vth_ = lsb_ * 1.0;
}

Real StreamingDatcReconstructor::latency_s() const {
  return config_.window_s / 2.0 + 2.0 / config_.output_fs_hz;
}

std::size_t StreamingDatcReconstructor::buffered_bytes() const {
  return ev_.size() * sizeof(Event) + store_.capacity() * sizeof(Real) +
         out_buf_.capacity() * sizeof(Real);
}

void StreamingDatcReconstructor::push_events(std::span<const Event> events) {
  dsp::require(!finished_,
               "StreamingDatcReconstructor: push_events after finish");
  bool sorted = true;
  for (const Event& e : events) {
    sorted = sorted && (!saw_event_ || e.time_s >= last_time_);
    saw_event_ = true;
    last_time_ = e.time_s;
  }
  dsp::require(sorted,
               "StreamingDatcReconstructor: events must be time sorted");
  ev_.insert(ev_.end(), events.begin(), events.end());
}

void StreamingDatcReconstructor::advance_to(Real watermark) {
  dsp::require(!finished_,
               "StreamingDatcReconstructor: advance_to after finish");
  dsp::require(watermark < std::numeric_limits<Real>::infinity(),
               "StreamingDatcReconstructor: watermark must be finite");
  watermark_ = std::max(watermark_, watermark);
  pump();
}

void StreamingDatcReconstructor::finish(Real duration_s) {
  dsp::require(duration_s > 0.0,
               "StreamingDatcReconstructor: duration must be positive");
  if (finished_) return;
  finished_ = true;
  duration_ = duration_s;
  n_total_ = static_cast<std::size_t>(
      std::llround(duration_s * config_.output_fs_hz));
  pump();
}

void StreamingDatcReconstructor::drain(std::vector<Real>& out) {
  out.insert(out.end(), out_buf_.begin(), out_buf_.end());
  out_buf_.clear();
}

std::vector<Real> StreamingDatcReconstructor::take() {
  return std::exchange(out_buf_, {});
}

/// Emits every output sample whose inputs are final. Before finish() that
/// takes two bounds from the watermark: the rate window of n must lie
/// below it, and n + h must lie below llround(watermark * fs). The latter
/// is a lower bound on the final sample count, so the smoothing window is
/// provably unclamped by the (still unknown) record end, and it keeps
/// every vth sample the window reads strictly below the watermark.
void StreamingDatcReconstructor::pump() {
  const Real fs = fs_;
  const Real half = half_;
  std::size_t n_end = n_total_;
  std::size_t j_cap = n_total_;
  if (!finished_) {
    const Real wm = watermark_;
    if (!(wm > 0.0)) return;
    const std::size_t rate_final =
        first_failing((wm - half) * fs + 1.0, [&](std::size_t n) {
          return wm >= static_cast<Real>(n) / fs + half;
        });
    // j < llround(wm * fs) puts t_j at least half a sample below wm.
    j_cap = static_cast<std::size_t>(std::llround(wm * fs));
    n_end = std::min(rate_final, j_cap > h_ ? j_cap - h_ : 0);
  }
  std::size_t n = emit_n_;
  if (n >= n_end) return;
  out_buf_.reserve(out_buf_.size() + (n_end - n));

  Real* const prefix = store_.data();
  Real* const times = prefix + p_mask_ + 1;
  Real* const memo = times + t_mask_ + 1;
  const Event* const ev = ev_.data();
  const std::size_t n_ev = ev_.size();
  const std::size_t h = h_;
  const Real lsb = lsb_;
  const Real duration = duration_;
  const Real w_interior = config_.window_s;
  std::size_t j = vth_count_;
  std::size_t lo = lo_;
  std::size_t hi = hi_;
  std::size_t vn = vth_next_;
  Real held = held_vth_;

  for (; n < n_end; ++n) {
    // Extend the held-vth prefix sum through the smoothing window's end.
    const std::size_t ma_end = std::min(n + h + 1, j_cap);
    for (; j < ma_end; ++j) {
      const Real t = static_cast<Real>(j) / fs;
      while (vn < n_ev && ev[vn].time_s <= t) {
        held = lsb * static_cast<Real>(ev[vn].vth_code);
        ++vn;
      }
      times[j & t_mask_] = t;
      prefix[(j + 1) & p_mask_] = prefix[j & p_mask_] + held;
    }

    const Real t = times[n & t_mask_];
    const Real t_lo = t - half;
    const Real t_hi = t + half;
    while (lo < n_ev && ev[lo].time_s < t_lo) ++lo;
    while (hi < n_ev && ev[hi].time_s < t_hi) ++hi;
    // Boundary windows are truncated by the record edges (before finish()
    // duration is +inf and t_hi <= watermark <= the final duration, so the
    // min() is the batch expression's value either way).
    const Real w_eff = std::min(t_hi, duration) - std::max(t_lo, 0.0);
    const std::size_t count = hi - lo;
    const auto inverse = [&] {
      return cal_->u_for_rate(static_cast<Real>(count) /
                              std::max(w_eff, Real{1e-9}));
    };
    Real u = 0.0;
    if (w_eff == w_interior) {
      Real* const slot = memo + 2 * (count & (kMemoSlots - 1));
      const auto key = static_cast<Real>(count);
      if (slot[0] != key) {
        slot[0] = key;
        slot[1] = inverse();
      }
      u = slot[1];
    } else {
      u = inverse();
    }

    const std::size_t ma_lo = n >= h ? n - h : 0;
    const Real vth_sm = (prefix[ma_end & p_mask_] - prefix[ma_lo & p_mask_]) /
                        static_cast<Real>(ma_end - ma_lo);
    const Real sigma = vth_sm / u;
    out_buf_.push_back(sigma * kArvOfSigma);
  }

  // Drop the events no cursor can revisit.
  const std::size_t done = std::min(lo, vn);
  ev_.erase(ev_.begin(), ev_.begin() + static_cast<std::ptrdiff_t>(done));
  emit_n_ = n;
  vth_count_ = j;
  lo_ = lo - done;
  hi_ = hi - done;
  vth_next_ = vn - done;
  held_vth_ = held;
}

}  // namespace datc::core
