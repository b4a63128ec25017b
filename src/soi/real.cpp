#include "soi/real.hpp"

#include <cmath>

#include "common/error.hpp"

namespace soi::core {

SoiRealFft::SoiRealFft(std::int64_t n, std::int64_t p,
                       win::SoiProfile profile)
    : n_(n),
      profile_(std::move(profile)),
      geom_(n / 2, p, profile_),
      table_(geom_, *profile_.window),
      batch_p_(p),
      batch_mp_(geom_.mprime()) {
  SOI_CHECK(n >= 4 && n % 2 == 0, "SoiRealFft: n must be even, got " << n);
  const std::int64_t h = n / 2;
  twiddle_.resize(static_cast<std::size_t>(h));
  for (std::int64_t k = 0; k < h; ++k) {
    const double ang = -kPi * static_cast<double>(k) / static_cast<double>(h);
    twiddle_[static_cast<std::size_t>(k)] = {std::cos(ang), std::sin(ang)};
  }

  // Forward pipeline: r2c_pack (0), the shared chain (1..6), r2c_untangle
  // (7). The chain runs between arena-resident endpoints: pack writes z,
  // demod writes zf, untangle reads zf into the caller's bins.
  env_.geom = &geom_;
  env_.table = &table_;
  env_.batch_p = &batch_p_;
  env_.batch_mp = &batch_mp_;
  env_.ranks = 1;
  env_.spr = p;
  env_.has_comm = false;
  const std::size_t zbytes = sizeof(cplx) * static_cast<std::size_t>(h);
  env_.src = state_.arena.reserve("z", zbytes, 0, 1);
  reserve_chain_buffers(state_.arena, env_, 1);
  env_.dst = state_.arena.reserve("zf", zbytes, 6, 7);
  fwd_.add(make_r2c_pack_stage(env_.src, h));
  append_chain_stages(fwd_, env_);
  fwd_.add(make_r2c_untangle_stage(env_.dst, &twiddle_, h));
  state_.arena.commit();
  fwd_.init_trace(state_.trace);

  // Inverse helper: the bare chain over caller spans (the conjugation
  // identity needs a plain half-length complex forward).
  inv_env_.geom = &geom_;
  inv_env_.table = &table_;
  inv_env_.batch_p = &batch_p_;
  inv_env_.batch_mp = &batch_mp_;
  inv_env_.ranks = 1;
  inv_env_.spr = p;
  inv_env_.has_comm = false;
  reserve_chain_buffers(chain_state_.arena, inv_env_, 0);
  append_chain_stages(chain_, inv_env_);
  chain_state_.arena.commit();
  chain_.init_trace(chain_state_.trace);
}

void SoiRealFft::forward(std::span<const double> in, mspan out) const {
  const std::int64_t h = n_ / 2;
  SOI_CHECK(in.size() == static_cast<std::size_t>(n_),
            "SoiRealFft::forward: bad input size");
  SOI_CHECK(out.size() >= static_cast<std::size_t>(h + 1),
            "SoiRealFft::forward: output needs n/2+1 bins");
  exec::ExecContextT<double> ctx;
  ctx.real_in = in;
  ctx.out = out;
  ctx.arena = &state_.arena;
  ctx.trace = &state_.trace;
  fwd_.run(ctx);
}

void SoiRealFft::inverse(cspan in, std::span<double> out) const {
  const std::int64_t h = n_ / 2;
  SOI_CHECK(in.size() >= static_cast<std::size_t>(h + 1),
            "SoiRealFft::inverse: input needs n/2+1 bins");
  SOI_CHECK(out.size() == static_cast<std::size_t>(n_),
            "SoiRealFft::inverse: bad output size");
  inv_in_.resize(static_cast<std::size_t>(h));
  inv_out_.resize(static_cast<std::size_t>(h));
  // Re-tangle the spectrum into the half-length signal's DFT, conjugated
  // so the chain's forward pass computes the inverse (z = conj(F(conj(zf)))
  // / h, the usual identity).
  for (std::int64_t k = 0; k < h; ++k) {
    const cplx yk = in[static_cast<std::size_t>(k)];
    const cplx ycc = std::conj(in[static_cast<std::size_t>(h - k)]);
    const cplx even = 0.5 * (yk + ycc);
    const cplx tw = std::conj(twiddle_[static_cast<std::size_t>(k)]);
    const cplx i_odd = cplx{0.0, 0.5} * tw * (yk - ycc);
    inv_in_[static_cast<std::size_t>(k)] = std::conj(even + i_odd);
  }
  exec::ExecContextT<double> ctx;
  ctx.in = inv_in_;
  ctx.out = inv_out_;
  ctx.arena = &chain_state_.arena;
  ctx.trace = &chain_state_.trace;
  chain_.run(ctx);
  const double scale = 1.0 / static_cast<double>(h);
  for (std::int64_t j = 0; j < h; ++j) {
    const cplx z = inv_out_[static_cast<std::size_t>(j)];
    out[static_cast<std::size_t>(2 * j)] = z.real() * scale;
    out[static_cast<std::size_t>(2 * j + 1)] = -z.imag() * scale;
  }
}

}  // namespace soi::core
