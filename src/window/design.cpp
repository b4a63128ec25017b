#include "window/design.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace soi::win {

namespace {

// Dense-sampling helpers. Adaptive quadrature is fragile when the integrand
// is ~1e-16 of its peak (absolute tolerances); plain fine-grid Riemann sums
// in double are robust at any magnitude, and B is an integer anyway.

/// Riemann-sum of |f| over [a, b] with step dt.
template <class F>
double grid_mass(F&& f, double a, double b, double dt) {
  double sum = 0.0;
  for (double t = a + 0.5 * dt; t < b; t += dt) sum += std::abs(f(t));
  return sum * dt;
}

/// Smallest x >= start where |f| stays below cutoff for a whole unit
/// interval (scan with step dt); capped at start + max_extent.
template <class F>
double decay_horizon(F&& f, double start, double cutoff, double dt,
                     double max_extent) {
  double quiet_since = start;
  for (double t = start; t < start + max_extent; t += dt) {
    if (std::abs(f(t)) >= cutoff) {
      quiet_since = t + dt;
    } else if (t - quiet_since >= 1.0) {
      return t;
    }
  }
  return start + max_extent;
}

}  // namespace

WindowMetrics evaluate_window(const Window& w, double beta) {
  SOI_CHECK(beta > 0.0, "evaluate_window: beta must be positive");
  return evaluate_window_bands(w, 0.5, 0.5 + beta, 1.0 + 2.0 * beta);
}

WindowMetrics evaluate_window_bands(const Window& w, double band_half,
                                    double alias_start,
                                    double image_period) {
  SOI_CHECK(band_half > 0.0 && alias_start > band_half && image_period > 0.0,
            "evaluate_window_bands: inconsistent band geometry");
  WindowMetrics m;

  // kappa over the band [-band_half, band_half], dense sampling.
  const int kBandSamples = 4097;
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  for (int i = 0; i < kBandSamples; ++i) {
    const double u = band_half * (-1.0 + 2.0 * static_cast<double>(i) /
                                             (kBandSamples - 1));
    const double v = std::abs(w.hhat(u));
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  m.kappa = (lo > 0.0) ? hi / lo : std::numeric_limits<double>::infinity();

  // Aliasing: what contaminates bin k after demodulation is the POINTWISE
  // window value at the alias images, summed over the periodisation shifts
  // (y-tilde_k = sum_l y_{k+l*M'} w-hat(k+l*M')). Normalise by the in-band
  // peak; the in-band dip is already accounted for by kappa.
  const double a = alias_start;
  if (w.compact_support() && w.support_halfwidth() <= a + 1e-12) {
    m.eps_alias = 0.0;
    return m;
  }
  const double peak = std::abs(w.hhat(0.0));
  const double horizon = decay_horizon(
      [&w](double u) { return w.hhat(u); }, a, peak * 1e-26, 0.01, 60.0);
  // Worst case over the first few periodisation images on both sides.
  double worst = 0.0;
  for (int img = 0; img < 8; ++img) {
    double local = 0.0;
    const double img_lo = a + img * image_period;
    if (img_lo > horizon) break;
    for (double u = img_lo; u <= std::min(img_lo + image_period, horizon);
         u += 1e-3) {
      local = std::max(local, std::abs(w.hhat(u)));
    }
    worst += local;  // contributions add across images
  }
  m.eps_alias = 2.0 * worst / peak;  // both spectral sides
  return m;
}

std::int64_t choose_taps(const Window& w, double eps_trunc) {
  SOI_CHECK(eps_trunc > 0.0, "choose_taps: eps_trunc must be positive");
  const double peak = std::abs(w.h(0.0));
  SOI_CHECK(peak > 0.0, "choose_taps: degenerate window (H(0) == 0)");
  const double dt = 1.0 / 64.0;
  const double horizon = decay_horizon(
      [&w](double t) { return w.h(t); }, 0.0, peak * 1e-26, 0.05, 4096.0);
  // Sample |H| once on [0, horizon); suffix sums answer every tail query.
  const auto samples = static_cast<std::size_t>(horizon / dt) + 1;
  std::vector<double> mass(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    mass[i] = std::abs(w.h((static_cast<double>(i) + 0.5) * dt)) * dt;
  }
  std::vector<double> suffix(samples + 1, 0.0);
  for (std::size_t i = samples; i-- > 0;) suffix[i] = suffix[i + 1] + mass[i];
  const double total = 2.0 * suffix[0];
  // Walk B upward until the symmetric tail fits under the budget.
  for (std::int64_t b = 2; b <= 8192; b += 2) {
    const double half = 0.5 * static_cast<double>(b);
    const auto idx = static_cast<std::size_t>(half / dt);
    if (idx >= samples) return b;
    const double tail = 2.0 * suffix[idx];
    if (tail <= eps_trunc * total) return b;
  }
  throw Error("choose_taps: window decays too slowly for eps_trunc=" +
              std::to_string(eps_trunc));
}

double target_snr_db(Accuracy acc) {
  switch (acc) {
    case Accuracy::kFull:
      return 290.0;
    case Accuracy::kHigh:
      return 250.0;
    case Accuracy::kMedium:
      return 210.0;
    case Accuracy::kLow:
      return 170.0;
  }
  throw Error("target_snr_db: bad accuracy enum");
}

SoiProfile design_gauss_rect(std::int64_t mu, std::int64_t nu,
                             double eps_target, double kappa_max,
                             const std::string& name) {
  SOI_CHECK(mu > nu && nu >= 1, "design_gauss_rect: need mu > nu >= 1");
  SOI_CHECK(eps_target > 0.0 && eps_target < 1.0,
            "design_gauss_rect: eps_target out of range");
  const double beta =
      static_cast<double>(mu) / static_cast<double>(nu) - 1.0;

  SoiProfile best;
  std::int64_t best_taps = std::numeric_limits<std::int64_t>::max();

  // For fixed tau, eps_alias falls monotonically with sigma while B grows
  // (H's Gaussian envelope widens as exp(-pi^2 t^2 / sigma)). So: for each
  // tau, binary-search the smallest sigma that meets eps_target, check
  // kappa, and take the tau giving the fewest taps.
  for (double tau = 0.70; tau <= 1.30 + 1e-9; tau += 0.05) {
    double lo = 1.0, hi = 1.0;
    // Grow hi until feasible (or give up on this tau).
    bool feasible = false;
    for (int it = 0; it < 40; ++it) {
      GaussSmoothedRect w(tau, hi);
      if (evaluate_window(w, beta).eps_alias <= eps_target) {
        feasible = true;
        break;
      }
      lo = hi;
      hi *= 2.0;
    }
    if (!feasible) continue;
    for (int it = 0; it < 30 && hi / lo > 1.01; ++it) {
      const double mid = std::sqrt(lo * hi);
      GaussSmoothedRect w(tau, mid);
      if (evaluate_window(w, beta).eps_alias <= eps_target) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    auto w = std::make_shared<GaussSmoothedRect>(tau, hi);
    const WindowMetrics m = evaluate_window(*w, beta);
    if (m.kappa > kappa_max) continue;
    const std::int64_t taps = choose_taps(*w, eps_target);
    if (taps < best_taps) {
      best_taps = taps;
      best.name = name;
      best.mu = mu;
      best.nu = nu;
      best.taps = taps;
      best.kappa = m.kappa;
      best.eps_alias = m.eps_alias;
      best.eps_trunc = eps_target;
      best.window = w;
    }
  }
  SOI_CHECK(best.window != nullptr,
            "design_gauss_rect: no feasible (tau, sigma) for eps="
                << eps_target << " kappa_max=" << kappa_max);
  best.target_snr = -20.0 * std::log10(eps_target);
  return best;
}

SoiProfile make_profile(Accuracy acc) {
  const double snr = target_snr_db(acc);
  const double eps = std::pow(10.0, -snr / 20.0);
  double kappa_max = 0.0;
  std::string name;
  switch (acc) {
    case Accuracy::kFull:
      kappa_max = 16.0;
      name = "soi-full(290dB)";
      break;
    case Accuracy::kHigh:
      kappa_max = 64.0;
      name = "soi-high(250dB)";
      break;
    case Accuracy::kMedium:
      kappa_max = 256.0;
      name = "soi-medium(210dB)";
      break;
    case Accuracy::kLow:
      kappa_max = 1000.0;
      name = "soi-low(170dB)";
      break;
  }
  return design_gauss_rect(5, 4, eps, kappa_max, name);
}

SoiProfile make_gaussian_profile(std::int64_t mu, std::int64_t nu) {
  SOI_CHECK(mu > nu && nu >= 1, "make_gaussian_profile: need mu > nu >= 1");
  const double beta =
      static_cast<double>(mu) / static_cast<double>(nu) - 1.0;
  // Scan sigma for the best achievable kappa*(eps_alias + eps_trunc)
  // estimate; Section 8: at beta = 1/4 this bottoms out near 10 digits.
  double best_err = std::numeric_limits<double>::infinity();
  double best_sigma = 0.0;
  for (double sigma = 4.0; sigma <= 4096.0; sigma *= 1.25) {
    GaussianWindow w(sigma);
    const WindowMetrics m = evaluate_window(w, beta);
    const double err = m.kappa * (m.eps_alias + 1e-17);
    if (err < best_err) {
      best_err = err;
      best_sigma = sigma;
    }
  }
  auto w = std::make_shared<GaussianWindow>(best_sigma);
  const WindowMetrics m = evaluate_window(*w, beta);
  SoiProfile p;
  p.name = "gaussian-window";
  p.mu = mu;
  p.nu = nu;
  // Truncate at the same level as the achievable aliasing error — going
  // finer cannot help (aliasing already dominates).
  p.eps_trunc = std::max(m.eps_alias * 0.1, 1e-16);
  p.taps = choose_taps(*w, p.eps_trunc);
  p.kappa = m.kappa;
  p.eps_alias = m.eps_alias;
  p.target_snr = -20.0 * std::log10(m.kappa * m.eps_alias + 1e-300);
  p.window = std::move(w);
  return p;
}

std::string serialize_profile(const SoiProfile& profile) {
  SOI_CHECK(profile.window != nullptr, "serialize_profile: empty profile");
  std::ostringstream os;
  os.precision(17);
  os << "soiprofile v1"
     << " name=" << (profile.name.empty() ? "unnamed" : profile.name)
     << " mu=" << profile.mu << " nu=" << profile.nu
     << " taps=" << profile.taps << " snr=" << profile.target_snr
     << " kappa=" << profile.kappa << " alias=" << profile.eps_alias
     << " trunc=" << profile.eps_trunc << " window=";
  if (const auto* gr =
          dynamic_cast<const GaussSmoothedRect*>(profile.window.get())) {
    os << "gauss-rect:" << gr->tau() << ":" << gr->sigma();
  } else if (const auto* ga =
                 dynamic_cast<const GaussianWindow*>(profile.window.get())) {
    os << "gaussian:" << ga->sigma();
  } else if (const auto* bs =
                 dynamic_cast<const BSplineWindow*>(profile.window.get())) {
    os << "bspline:" << bs->order();
  } else if (const auto* kb = dynamic_cast<const KaiserBesselWindow*>(
                 profile.window.get())) {
    os << "kaiser-bessel:" << kb->b() << ":" << kb->c();
  } else {
    throw Error("serialize_profile: unsupported window family " +
                profile.window->name());
  }
  return os.str();
}

SoiProfile parse_profile(const std::string& text) {
  std::istringstream is(text);
  std::string magic, version;
  is >> magic >> version;
  SOI_CHECK(magic == "soiprofile" && version == "v1",
            "parse_profile: bad header in '" << text << "'");
  SoiProfile p;
  std::string tok;
  std::string window_spec;
  while (is >> tok) {
    const auto eq = tok.find('=');
    SOI_CHECK(eq != std::string::npos, "parse_profile: bad token " << tok);
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    const std::string what = "parse_profile: " + key;
    if (key == "name") {
      p.name = val;
    } else if (key == "mu") {
      p.mu = parse_int(val, what);
    } else if (key == "nu") {
      p.nu = parse_int(val, what);
    } else if (key == "taps") {
      p.taps = parse_int(val, what);
    } else if (key == "snr") {
      p.target_snr = parse_double(val, what);
    } else if (key == "kappa") {
      p.kappa = parse_double(val, what);
    } else if (key == "alias") {
      p.eps_alias = parse_double(val, what);
    } else if (key == "trunc") {
      p.eps_trunc = parse_double(val, what);
    } else if (key == "window") {
      window_spec = val;
    } else {
      throw Error("parse_profile: unknown key " + key);
    }
  }
  SOI_CHECK(!window_spec.empty(), "parse_profile: missing window spec");
  const auto c1 = window_spec.find(':');
  SOI_CHECK(c1 != std::string::npos, "parse_profile: bad window spec");
  const std::string family = window_spec.substr(0, c1);
  const std::string params = window_spec.substr(c1 + 1);
  const std::string what = "parse_profile: " + family + " window";
  // Two ':'-separated window parameters, e.g. gauss-rect's tau:sigma.
  const auto param_pair = [&](const char* shape) {
    const auto c2 = params.find(':');
    SOI_CHECK(c2 != std::string::npos,
              "parse_profile: " << family << " needs " << shape);
    return std::pair{parse_double(params.substr(0, c2), what),
                     parse_double(params.substr(c2 + 1), what)};
  };
  if (family == "gauss-rect") {
    const auto [tau, sigma] = param_pair("tau:sigma");
    p.window = std::make_shared<GaussSmoothedRect>(tau, sigma);
  } else if (family == "gaussian") {
    p.window = std::make_shared<GaussianWindow>(parse_double(params, what));
  } else if (family == "bspline") {
    // The constructor range-checks the order; this guards the narrowing.
    p.window = std::make_shared<BSplineWindow>(static_cast<int>(
        parse_int(params, what, 0, std::numeric_limits<int>::max())));
  } else if (family == "kaiser-bessel") {
    const auto [b, c] = param_pair("b:c");
    p.window = std::make_shared<KaiserBesselWindow>(b, c);
  } else {
    throw Error("parse_profile: unknown window family " + family);
  }
  SOI_CHECK(p.mu > p.nu && p.nu >= 1 && p.taps >= 2,
            "parse_profile: inconsistent profile values");
  return p;
}

SoiProfile make_bspline_profile(std::int64_t mu, std::int64_t nu, int order) {
  SOI_CHECK(mu > nu && nu >= 1, "make_bspline_profile: need mu > nu >= 1");
  const double beta =
      static_cast<double>(mu) / static_cast<double>(nu) - 1.0;
  auto w = std::make_shared<BSplineWindow>(order);
  const WindowMetrics m = evaluate_window(*w, beta);
  SoiProfile p;
  p.name = "bspline-" + std::to_string(order);
  p.mu = mu;
  p.nu = nu;
  // Compact time support: B = order covers the spline exactly (keep even).
  p.taps = order + (order % 2);
  p.eps_trunc = 0.0;
  p.kappa = m.kappa;
  p.eps_alias = m.eps_alias;
  p.target_snr = -20.0 * std::log10(m.kappa * m.eps_alias + 1e-300);
  p.window = std::move(w);
  return p;
}

SoiProfile make_kaiser_profile(std::int64_t mu, std::int64_t nu, double b) {
  SOI_CHECK(mu > nu && nu >= 1, "make_kaiser_profile: need mu > nu >= 1");
  const double beta =
      static_cast<double>(mu) / static_cast<double>(nu) - 1.0;
  auto w = std::make_shared<KaiserBesselWindow>(b, 0.5 + beta);
  const WindowMetrics m = evaluate_window(*w, beta);
  SoiProfile p;
  p.name = "kaiser-bessel";
  p.mu = mu;
  p.nu = nu;
  // Polynomially decaying H: pick a pragmatic truncation level; the bench
  // reports the resulting (mediocre) SNR as the ablation result.
  p.eps_trunc = 1e-9;
  p.taps = choose_taps(*w, p.eps_trunc);
  p.kappa = m.kappa;
  p.eps_alias = m.eps_alias;  // exactly zero by construction
  p.target_snr = 180.0;
  p.window = std::move(w);
  return p;
}

}  // namespace soi::win
