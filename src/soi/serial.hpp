// Single-process SOI FFT: executes the complete factorisation (Eq. 6)
//
//   y ~= (I_P (x) W-hat^{-1} P_proj F_M') P_perm (I_M' (x) F_P) W x
//
// with all P segments computed in-process. This is both the reference
// implementation the distributed version is tested against and a useful
// shared-memory transform in its own right (P plays the role of the
// "number of segments", paper Section 6: P may exceed the node count).
//
// Execution is a soi::exec pipeline over the shared stage chain
// (soi/stages.hpp) with a null comm: the same stage bodies the
// distributed plan runs, minus the communication. All workspace lives in
// a preplanned arena, so steady-state forward() allocates nothing.
#pragma once

#include "common/types.hpp"
#include "fft/batch.hpp"
#include "fft/plan.hpp"
#include "soi/breakdown.hpp"
#include "soi/conv_table.hpp"
#include "soi/exec.hpp"
#include "soi/params.hpp"
#include "soi/stages.hpp"
#include "window/design.hpp"

namespace soi::core {

/// Reusable serial SOI plan for fixed (N, P, profile), templated on the
/// working precision: SoiFftSerial (double, the paper's regime) and
/// SoiFftSerialF (float — the "6-digit" single-precision regime Section
/// 7.3 alludes to; window tables are designed in double, stored at float).
///
/// Plans may be shared across threads. forward()/inverse() reuse the
/// plan's own preplanned workspace, so concurrent calls to THOSE on one
/// plan object are not supported — but the stage chain itself is
/// stateless under a null comm, so K threads may run one shared plan
/// concurrently by giving each its own exec::ExecState (init_state once,
/// then forward_on per call; both allocation-free after init_state).
/// This is the serving layer's execution primitive.
template <class Real>
class SoiFftSerialT {
 public:
  SoiFftSerialT(std::int64_t n, std::int64_t p, win::SoiProfile profile);

  [[nodiscard]] const SoiGeometry& geometry() const { return geom_; }
  [[nodiscard]] const win::SoiProfile& profile() const { return profile_; }
  [[nodiscard]] std::int64_t size() const { return geom_.n(); }

  /// Forward transform: y[k] ~= sum_j x[j] exp(-2 pi i jk / N), in order.
  void forward(cspan_t<Real> x, mspan_t<Real> y) const;

  /// NaN/Inf input pre-scan before forward()/inverse(): on by default in
  /// Debug builds, off in Release; this setter overrides either way.
  /// Violations throw soi::InvalidArgumentError instead of producing
  /// silent garbage.
  void set_validate_input(bool on) { validate_input_ = on ? 1 : 0; }

  /// Forward with a per-phase timing breakdown.
  void forward_timed(cspan_t<Real> x, mspan_t<Real> y,
                     SoiPhaseTimes& times) const;

  /// Prepare `st` as an independent execution state of this plan: its own
  /// committed workspace (cloned layout), trace and scheduler scratch.
  /// Allocates; call once per concurrent lane, then forward_on() freely.
  void init_state(exec::ExecState& st) const;

  /// forward() on a caller-owned state — thread-safe w.r.t. other
  /// forward_on() calls on DIFFERENT states of the same plan, and
  /// allocation-free in steady state. `st` must come from init_state().
  void forward_on(exec::ExecState& st, cspan_t<Real> x,
                  mspan_t<Real> y) const;

  /// Inverse transform (scaled by 1/N) via the conjugation identity.
  void inverse(cspan_t<Real> y, mspan_t<Real> x) const;

  /// Structured per-stage trace of the most recent execution.
  [[nodiscard]] const exec::TraceLog& last_trace() const {
    return state_.trace;
  }
  /// The preplanned workspace (peak bytes, growth count — test surface).
  [[nodiscard]] const WorkspaceArena& workspace() const {
    return state_.arena;
  }

 private:
  win::SoiProfile profile_;
  SoiGeometry geom_;
  ConvTableT<Real> table_;
  fft::BatchFftT<Real> batch_p_;   // I_M' (x) F_P
  fft::BatchFftT<Real> batch_mp_;  // I_P (x) F_M'
  ChainEnvT<Real> env_;
  exec::PipelineT<Real> pipeline_;
  mutable exec::ExecState state_;
  int validate_input_ = -1;  ///< -1 auto (Debug on), 0 off, 1 on
  mutable cvec_t<Real> inv_in_, inv_out_;  // conjugation scratch (inverse)
};

extern template class SoiFftSerialT<double>;
extern template class SoiFftSerialT<float>;

using SoiFftSerial = SoiFftSerialT<double>;
using SoiFftSerialF = SoiFftSerialT<float>;

/// Segment-of-interest ("zoom") transform: computes only the M = N/P
/// outputs y[s*M .. (s+1)*M) from all N inputs, at cost O(N*B + M' log M')
/// — the Fig. 1 primitive exposed directly. For M << N this is far cheaper
/// than a full FFT when only a band of the spectrum is wanted.
class SegmentPlan {
 public:
  SegmentPlan(std::int64_t n, std::int64_t p, win::SoiProfile profile);

  [[nodiscard]] const SoiGeometry& geometry() const { return geom_; }
  /// Output band length M.
  [[nodiscard]] std::int64_t segment_length() const { return geom_.m(); }

  /// Compute segment s (0 <= s < P): y_seg gets y[s*M .. (s+1)*M).
  void compute(cspan x, std::int64_t s, mspan y_seg) const;

 private:
  win::SoiProfile profile_;
  SoiGeometry geom_;
  ConvTable table_;
  fft::FftPlan plan_mp_;
};

}  // namespace soi::core
