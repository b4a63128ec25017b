// Real-input SOI transform: an even-length real signal packed into a
// half-length complex SOI FFT and untangled — the r2c surface production
// FFT libraries expose, here backed by the low-communication factorisation.
//
// The forward path is ONE soi::exec pipeline: r2c_pack, the shared SOI
// stage chain (soi/stages.hpp, null comm) bracketed between arena-resident
// endpoints z/zf, then r2c_untangle — the conv/F_P/F_M'/demod bodies are
// the very same translation unit the serial and distributed plans run.
#pragma once

#include <span>

#include "common/types.hpp"
#include "fft/batch.hpp"
#include "soi/breakdown.hpp"
#include "soi/conv_table.hpp"
#include "soi/exec.hpp"
#include "soi/params.hpp"
#include "soi/stages.hpp"
#include "window/design.hpp"

namespace soi::core {

/// r2c/c2r SOI plan for even real length n: n/2+1 non-redundant bins.
/// Workspace is preplanned, so steady-state forward() allocates nothing;
/// concurrent executions of ONE plan object are not supported.
class SoiRealFft {
 public:
  /// The internal complex SOI transform has length n/2 split into p
  /// segments (the usual divisibility rules apply to n/2 and p).
  SoiRealFft(std::int64_t n, std::int64_t p, win::SoiProfile profile);

  [[nodiscard]] std::int64_t size() const { return n_; }

  /// out[k], k = 0..n/2, of the DFT of the real signal `in` (n values).
  void forward(std::span<const double> in, mspan out) const;

  /// Reconstruct the real signal from its n/2+1 spectrum bins.
  void inverse(cspan in, std::span<double> out) const;

  /// Structured per-stage trace of the most recent forward().
  [[nodiscard]] const exec::TraceLog& last_trace() const {
    return state_.trace;
  }
  /// The forward pipeline's preplanned workspace.
  [[nodiscard]] const WorkspaceArena& workspace() const {
    return state_.arena;
  }

 private:
  std::int64_t n_;
  win::SoiProfile profile_;
  SoiGeometry geom_;  // half-length complex geometry (n/2, p)
  ConvTable table_;
  fft::BatchFft batch_p_;
  fft::BatchFft batch_mp_;
  cvec twiddle_;  // exp(-i pi k / (n/2)) untangling factors
  ChainEnvT<double> env_;        // forward chain, z -> zf endpoints
  exec::PipelineT<double> fwd_;  // r2c_pack + chain + r2c_untangle
  mutable exec::ExecState state_;
  ChainEnvT<double> inv_env_;      // inverse helper chain, ctx.in -> ctx.out
  exec::PipelineT<double> chain_;  // chain only (conjugation identity)
  mutable exec::ExecState chain_state_;
  mutable cvec inv_in_, inv_out_;  // conjugation scratch (inverse)
};

}  // namespace soi::core
