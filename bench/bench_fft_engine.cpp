// bench_fft_engine — substrate benchmark: the node-local FFT engine across
// strategies and sizes, plus the convolution W. Not a paper figure — it
// grounds the compute calibration used by the figure benches.
//
// Cases (best-of-reps wall time per call):
//   fft_forward      FftPlan::forward, double: pow2 (mixed radix), smooth
//                    non-pow2, Rader (prime) and Bluestein (non-smooth)
//   fft_forward_f32  FftPlanF::forward, single precision
//   fft_batch_fp     FftPlan::forward_batch on the SOI inner shape: many
//                    tiny F_P transforms over 2^18 points
//   convolution      core::convolve_rank at 2^17 points per rank of an
//                    N = 2^17 * nodes transform (n = N); gflops counts
//                    8 flops per complex madd, ns/point is per rank point
//
// Env knob: SOI_BENCH_REPS (default 5). `--json` emits the harness
// BenchRecord array instead of the table.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "fft/plan.hpp"
#include "harness.hpp"
#include "soi/conv_table.hpp"
#include "soi/convolve.hpp"
#include "soi/params.hpp"
#include "window/design.hpp"

using namespace soi;

namespace {

constexpr const char* kBench = "bench_fft_engine";

template <class F>
double best_of(int reps, F&& f) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    Timer t;
    f();
    best = std::min(best, t.seconds());
  }
  return best;
}

void fft_forward(std::int64_t n, int reps,
                 std::vector<bench::BenchRecord>& out) {
  const fft::FftPlan plan(n);
  cvec x(static_cast<std::size_t>(n)), y(x.size());
  cvec work(plan.workspace_size());
  fill_gaussian(x, 5);
  const double t = best_of(reps, [&] { plan.forward(x, y, work); });
  out.push_back(bench::make_record(kBench, "fft_forward", n, 1, t));
}

void fft_forward_f32(std::int64_t n, int reps,
                     std::vector<bench::BenchRecord>& out) {
  // Single precision: typically ~1.5-2x the double throughput (twice the
  // SIMD lanes, half the memory traffic).
  const fft::FftPlanF plan(n);
  cvecf x(static_cast<std::size_t>(n)), y(x.size());
  cvecf work(plan.workspace_size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = {static_cast<float>(i % 7) - 3.0f, static_cast<float>(i % 5)};
  }
  const double t = best_of(reps, [&] { plan.forward(x, y, work); });
  out.push_back(bench::make_record(kBench, "fft_forward_f32", n, 1, t));
}

void fft_batch_fp(std::int64_t p, int reps,
                  std::vector<bench::BenchRecord>& out) {
  const std::int64_t count = (1 << 18) / p;
  const fft::FftPlan plan(p);
  cvec x(static_cast<std::size_t>(p * count)), y(x.size());
  fill_gaussian(x, 6);
  const double t = best_of(reps, [&] { plan.forward_batch(x, y, count); });
  out.push_back(bench::make_record(kBench, "fft_batch_fp", p, count, t));
}

void convolution(std::int64_t nodes, int reps,
                 std::vector<bench::BenchRecord>& out) {
  const std::int64_t s = 1 << 17;
  static const win::SoiProfile profile =
      win::make_profile(win::Accuracy::kFull);
  const core::SoiGeometry g(s * nodes, nodes, profile);
  const core::ConvTable table(g, *profile.window);
  cvec in(static_cast<std::size_t>(g.local_input()));
  fill_gaussian(in, 7);
  cvec y(static_cast<std::size_t>(g.chunks_per_rank() * g.p()));
  const double t =
      best_of(reps, [&] { core::convolve_rank(g, table, in, y); });
  auto rec = bench::make_record(kBench, "convolution", s * nodes, 1, t);
  rec.gflops = 8.0 * static_cast<double>(g.conv_madds_per_rank()) / t / 1e9;
  rec.ns_per_point = t * 1e9 / static_cast<double>(s);
  out.push_back(rec);
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = bench::json_mode(argc, argv);
  const int reps = static_cast<int>(env_i64("SOI_BENCH_REPS", 5));

  std::vector<bench::BenchRecord> records;
  // Power-of-two, smooth non-pow2, then Rader (prime) and Bluestein
  // (non-smooth composite).
  for (const std::int64_t n :
       {std::int64_t{1} << 10, std::int64_t{1} << 14, std::int64_t{1} << 18,
        std::int64_t{1} << 20, std::int64_t{3} << 12, std::int64_t{5} << 12,
        std::int64_t{7 * 9 * 1024}, std::int64_t{65537},
        std::int64_t{2 * 65537}}) {
    fft_forward(n, reps, records);
  }
  for (const std::int64_t n : {std::int64_t{1} << 14, std::int64_t{1} << 18}) {
    fft_forward_f32(n, reps, records);
  }
  for (const std::int64_t p : {8, 16, 64}) fft_batch_fp(p, reps, records);
  for (const std::int64_t nodes : {8, 16, 64}) {
    convolution(nodes, reps, records);
  }

  if (json) {
    std::fputs(bench::to_json(records).c_str(), stdout);
    return 0;
  }
  std::printf("node-local FFT engine and convolution (reps=%d)\n", reps);
  std::printf("%-16s %9s %7s %12s %9s %11s\n", "case", "n", "batch",
              "us/call", "GFLOPS", "ns/point");
  for (const auto& r : records) {
    std::printf("%-16s %9lld %7lld %12.2f %9.2f %11.3f\n", r.label.c_str(),
                static_cast<long long>(r.n), static_cast<long long>(r.batch),
                r.seconds * 1e6, r.gflops, r.ns_per_point);
  }
  return 0;
}
