// Autotuning example: pick a configuration, persist it as wisdom, reuse it.
//
//   build/examples/autotune [ranks] [log2_points_per_rank]
//
// 1. Enumerates the candidate space for the problem shape and autotunes
//    (modeled scoring — deterministic) to find the best configuration.
// 2. Saves the decision to a wisdom file and reloads it, as a production
//    run would across process launches.
// 3. Runs the distributed SOI FFT once with the seed's hard-coded default
//    and once with the tuned configuration, sharing one convolution table
//    across ranks via the plan registry, and verifies both answers.
//
// Exits nonzero if the wisdom round-trip or either accuracy check fails.
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

#include "soi/soi.hpp"

using namespace soi;

namespace {

// Runs the distributed transform with the given options on `transport`;
// returns SNR vs the exact serial engine. The SNR flows back through
// captured host memory, so the caller must pick a threaded_world backend.
double run_dist(const std::string& transport, std::int64_t n, int p,
                const win::SoiProfile& profile, const core::DistOptions& opts,
                const cvec& x, const cvec& want) {
  const std::int64_t m = n / p;
  cvec y(x.size());
  double snr = 0.0;
  net::run_world(transport, p, [&](net::Transport& comm) {
    core::SoiFftDist plan(comm, n, profile, opts);
    cvec y_local(static_cast<std::size_t>(m));
    plan.forward(cspan{x.data() + comm.rank() * m, static_cast<std::size_t>(m)},
                 y_local);
    comm.gather(y_local, y, 0);
    if (comm.rank() == 0) snr = snr_db(y, want);
  });
  return snr;
}

}  // namespace

int main(int argc, char** argv) {
  const int p = argc > 1 ? std::atoi(argv[1]) : 8;
  const int lg = argc > 2 ? std::atoi(argv[2]) : 14;
  const std::int64_t n = (std::int64_t{1} << lg) * p;
  std::string transport = net::default_transport();
  if (!net::TransportRegistry::instance().caps(transport).threaded_world) {
    std::fprintf(stderr,
                 "autotune example: transport '%s' is cross-process; the "
                 "example reads results from captured memory — using 'sim'\n",
                 transport.c_str());
    transport = "sim";
  }

  const tune::TuneKey key{n, p, win::Accuracy::kHigh};
  std::printf("autotuning [%s]\n", key.str().c_str());

  // --- 1. enumerate + tune ---------------------------------------------------
  const auto space = tune::candidate_space(key);
  std::printf("candidate space: %zu feasible configurations\n", space.size());
  tune::TuneOptions topts;  // modeled scoring: deterministic
  const auto result = tune::autotune(key, topts);
  std::printf("winner: %s (%.3f ms modeled)\n\n",
              result.best.candidate.describe().c_str(),
              result.best.total_seconds() * 1e3);

  // --- 2. wisdom round-trip --------------------------------------------------
  tune::WisdomStore store;
  store.put(key, result.config());
  const char* path = "autotune_example_wisdom.txt";
  store.save(path);
  const auto loaded = tune::WisdomStore::load(path);
  const auto tuned = loaded.find(key);
  if (!tuned.has_value() ||
      tuned->candidate.describe() != result.best.candidate.describe()) {
    std::printf("FAIL: wisdom round-trip lost the tuned configuration\n");
    return 1;
  }
  std::printf("wisdom saved to %s and reloaded (%zu entries)\n\n", path,
              loaded.size());

  // --- 3. default vs tuned run ----------------------------------------------
  cvec x(static_cast<std::size_t>(n));
  fill_gaussian(x, 19);
  cvec want(x.size());
  fft::FftPlan exact(n);
  exact.forward(x, want);

  auto& registry = tune::PlanRegistry::global();
  const auto profile = registry.profile(key.accuracy);

  const core::DistOptions default_opts;  // spr=1, pairwise, no overlap
  const double snr_default =
      run_dist(transport, n, p, *profile, default_opts, x, want);

  core::DistOptions tuned_opts;
  tuned_opts.segments_per_rank = tuned->candidate.segments_per_rank;
  tuned_opts.alltoall_algo = tuned->candidate.alltoall_algo;
  tuned_opts.overlap = tuned->candidate.overlap;
  // One table for all ranks: the registry constructs it exactly once.
  tuned_opts.table = registry.conv_table(n, p * tuned_opts.segments_per_rank,
                                         tuned->profile);
  const double snr_tuned =
      run_dist(transport, n, p, tuned->profile, tuned_opts, x, want);

  const auto stats = registry.stats();
  std::printf("accuracy: default %.1f dB | tuned %.1f dB\n", snr_default,
              snr_tuned);
  std::printf("plan registry: %lld hits / %lld misses, %zu resident\n",
              static_cast<long long>(stats.hits),
              static_cast<long long>(stats.misses), stats.size);

  const double floor_db = 120.0;  // kHigh designs to ~250 dB; huge margin
  if (snr_default < floor_db || snr_tuned < floor_db) {
    std::printf("FAIL: accuracy below %.0f dB floor\n", floor_db);
    return 1;
  }
  return 0;
}
