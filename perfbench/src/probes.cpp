// Layer probes of the traced run. Each probe calls one module's public
// entry point from outside at a shape a workload uses, and reports it next
// to the host ceilings measured in the same run:
//
//   host.*      STREAM-style copy over arrays >= 4x the L3, and the
//               single-thread fft::BatchFft rate at n = 256 in cache.
//   fft.*       engine BatchTransform::forward at dist_large's rank shapes
//               (F_M', F_P) and at the serve lanes' F_M' batch.
//   soi.*       core::convolve_rank on one rank's block of dist_large; per-
//               rank forward() times in a 4-rank shm world.
//   net.*       raw ialltoall/wait and the halo sendrecv over shm at
//               dist_large's volume, and over sim at the lane volume with
//               the serve workloads' wire latency.
//   window/tune/soi setup pieces at the running workload's shapes.
//   baseline.*  SixStepFftDist in the same shm world, single-thread FftPlan
//               and single-thread SoiFftSerial at dist_large's N.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "baseline/sixstep.hpp"
#include "common/types.hpp"
#include "fft/batch.hpp"
#include "fft/engine.hpp"
#include "fft/plan.hpp"
#include "net/registry.hpp"
#include "soi/conv_table.hpp"
#include "soi/convolve.hpp"
#include "soi/dist.hpp"
#include "soi/params.hpp"
#include "soi/serial.hpp"
#include "tune/registry.hpp"
#include "window/design.hpp"
#include "workloads.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {
namespace {

/// Median wall time in seconds of `reps` calls of fn (after one warm call).
template <class F>
double median_time(int reps, F&& fn) {
  fn();
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double a = now_s();
    fn();
    t.push_back(now_s() - a);
  }
  return quantile(t, 0.5);
}

/// Runs fn with OpenMP limited to one thread, restoring the previous limit.
template <class F>
auto single_thread(F&& fn) {
#ifdef _OPENMP
  const int prev = omp_get_max_threads();
  omp_set_num_threads(1);
  auto r = fn();
  omp_set_num_threads(prev);
  return r;
#else
  return fn();
#endif
}

int max_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

double l3_bytes() {
  const long l3 = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  return l3 > 0 ? static_cast<double>(l3) : 105.0 * 1024 * 1024;
}

double fft_flops(std::int64_t n) {
  return 5.0 * static_cast<double>(n) * std::log2(static_cast<double>(n));
}

/// STREAM copy b[i] = a[i] on every core (whatever the OpenMP thread limit
/// of the ranks is); GB/s counting read + write.
double copy_gbps() {
  const auto count =
      static_cast<std::size_t>(std::max(4.0 * l3_bytes(), 256.0 * 1024 * 1024) /
                               sizeof(double));
  std::vector<double> a(count, 1.0);
  std::vector<double> b(count, 0.0);
  const auto n = static_cast<std::int64_t>(count);
  const double t = median_time(5, [&] {
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads(omp_get_num_procs())
#endif
    for (std::int64_t i = 0; i < n; ++i) b[static_cast<std::size_t>(i)] = a[static_cast<std::size_t>(i)];
  });
  return 2.0 * static_cast<double>(count * sizeof(double)) / t / 1e9;
}

struct DistProbe {
  double plan_s = 0.0;
  double forward_ms = 0.0;        ///< barrier-to-barrier SOI forward
  double rank_forward_max_ms = 0.0;
  double rank_skew_ms = 0.0;
  double alltoall_ms = 0.0;
  double halo_us = 0.0;
  double sixstep_ms = 0.0;
  std::int64_t retries = 0;
  std::int64_t checksum_failures = 0;
  std::int64_t failed = 0;
};

constexpr int kForwardReps = 9;
constexpr int kNetReps = 21;

/// Per-rank timing probe world at dist_large's shape (4 shm processes).
DistProbe probe_dist_world(const soi::win::SoiProfile& prof,
                           const std::shared_ptr<const soi::core::ConvTable>& table,
                           std::uint64_t seed) {
  SharedArray<DistProbe> out(1);
  SharedArray<double> rank_ms(static_cast<std::size_t>(kDistRanks * kForwardReps));
  const soi::cvec x = make_signal(kDistN, seed, 7);
  soi::net::run_world("shm", kDistRanks, [&](soi::net::Transport& comm) {
    const int rank = comm.rank();
    auto& o = out[0];
    comm.barrier();
    double a = now_s();
    soi::core::DistOptions dopts;
    dopts.table = table;
    soi::core::SoiFftDist plan(comm, kDistN, prof, dopts);
    comm.barrier();
    if (rank == 0) o.plan_s = now_s() - a;

    const std::int64_t m = plan.local_size();
    const soi::cspan xl{x.data() + rank * m, static_cast<std::size_t>(m)};
    soi::cvec y(static_cast<std::size_t>(m));
    plan.forward(xl, y);
    std::vector<double> wall;
    for (int r = 0; r < kForwardReps; ++r) {
      comm.barrier();
      a = now_s();
      plan.forward(xl, y);
      rank_ms[static_cast<std::size_t>(r * kDistRanks + rank)] = (now_s() - a) * 1e3;
      comm.barrier();
      wall.push_back((now_s() - a) * 1e3);
    }
    for (const auto& v : y) {
      if (!std::isfinite(v.real()) || !std::isfinite(v.imag())) ++o.failed;
    }
    if (rank == 0) o.forward_ms = quantile(wall, 0.5);

    // Raw exchange at the SOI all-to-all's volume: every rank sends its
    // whole convolution output (M' points) split evenly over the ranks.
    const std::int64_t per_dest =
        plan.geometry().mprime() * plan.segments_per_rank() / kDistRanks;
    soi::cvec send(static_cast<std::size_t>(per_dest * kDistRanks), soi::cplx{1.0, 0.0});
    soi::cvec recv(send.size());
    std::vector<double> a2a;
    for (int r = 0; r <= kNetReps; ++r) {
      comm.barrier();
      a = now_s();
      auto req = comm.ialltoall(send, recv, per_dest);
      comm.wait(req);
      comm.barrier();
      if (r > 0) a2a.push_back((now_s() - a) * 1e3);
    }
    if (rank == 0) o.alltoall_ms = quantile(a2a, 0.5);

    // Halo: (B - nu) * P points from the right neighbour, as in stage 1.
    const std::int64_t halo = plan.geometry().halo();
    soi::cvec hs(static_cast<std::size_t>(halo), soi::cplx{1.0, 0.0});
    soi::cvec hr(hs.size());
    std::vector<double> hal;
    for (int r = 0; r <= kNetReps; ++r) {
      comm.barrier();
      a = now_s();
      comm.sendrecv((rank + kDistRanks - 1) % kDistRanks, hs,
                    (rank + 1) % kDistRanks, hr, 77);
      comm.barrier();
      if (r > 0) hal.push_back((now_s() - a) * 1e6);
    }
    if (rank == 0) o.halo_us = quantile(hal, 0.5);

    soi::baseline::SixStepFftDist six(comm, kDistN);
    six.forward(xl, y);
    std::vector<double> st;
    for (int r = 0; r < kForwardReps; ++r) {
      comm.barrier();
      a = now_s();
      six.forward(xl, y);
      comm.barrier();
      st.push_back((now_s() - a) * 1e3);
    }
    if (rank == 0) {
      o.sixstep_ms = quantile(st, 0.5);
      const auto fs = comm.fault_stats();
      o.retries = fs.retransmits;
      o.checksum_failures = fs.checksum_failures;
    }
  });
  DistProbe p = out[0];
  std::vector<double> maxes, skews;
  for (int r = 0; r < kForwardReps; ++r) {
    const double* row = rank_ms.data() + r * kDistRanks;
    const auto [lo, hi] = std::minmax_element(row, row + kDistRanks);
    maxes.push_back(*hi);
    skews.push_back(*hi - *lo);
  }
  p.rank_forward_max_ms = quantile(maxes, 0.5);
  p.rank_skew_ms = quantile(skews, 0.5);
  return p;
}

struct LaneProbe {
  double alltoall_us = 0.0;
  double plan_s = 0.0;
  std::int64_t retries = 0;
  std::int64_t checksum_failures = 0;
};

/// Sim world with the serve workloads' wire latency: raw exchange at the
/// large lane's per-request volume, and plan construction of every lane.
LaneProbe probe_lane_world(const soi::win::SoiProfile& prof,
                           const std::vector<std::int64_t>& lane_ns,
                           soi::tune::PlanRegistry& reg) {
  LaneProbe p;
  soi::net::NetOptions nopts;
  nopts.wire_latency_us = kWireLatencyUs;
  const std::int64_t p_total = kServeRanks * kLaneSegmentsPerRank;
  std::vector<std::shared_ptr<const soi::core::ConvTable>> tables;
  for (const auto n : lane_ns) tables.push_back(reg.conv_table(n, p_total, prof));
  soi::net::run_world("sim", kServeRanks, nopts, [&](soi::net::Transport& comm) {
    const int rank = comm.rank();
    comm.barrier();
    double a = now_s();
    std::int64_t mprime = 0;
    for (std::size_t l = 0; l < lane_ns.size(); ++l) {
      soi::core::DistOptions dopts;
      dopts.segments_per_rank = kLaneSegmentsPerRank;
      dopts.overlap = true;
      dopts.table = tables[l];
      soi::core::SoiFftDist plan(comm, lane_ns[l], prof, dopts);
      mprime = std::max(mprime, plan.geometry().mprime());
    }
    comm.barrier();
    if (rank == 0) p.plan_s = now_s() - a;
    const std::int64_t per_dest = mprime * kLaneSegmentsPerRank / kServeRanks;
    soi::cvec send(static_cast<std::size_t>(per_dest * kServeRanks), soi::cplx{1.0, 0.0});
    soi::cvec recv(send.size());
    std::vector<double> t;
    for (int r = 0; r <= kNetReps; ++r) {
      comm.barrier();
      a = now_s();
      auto req = comm.ialltoall(send, recv, per_dest);
      comm.wait(req);
      comm.barrier();
      if (r > 0) t.push_back((now_s() - a) * 1e6);
    }
    if (rank == 0) {
      p.alltoall_us = quantile(t, 0.5);
      const auto fs = comm.fault_stats();
      p.retries = fs.retransmits;
      p.checksum_failures = fs.checksum_failures;
    }
  });
  return p;
}

}  // namespace

void run_fork_probes(const Args& args, Report& report, Tracer& tracer) {
  const bool dist = args.workload == "dist_large";
  const auto full = soi::win::make_profile(soi::win::Accuracy::kFull);
  const soi::core::SoiGeometry g(kDistN, kDistRanks, full);

  // --- setup pieces at this workload's shapes ----------------------------
  const auto acc = dist ? soi::win::Accuracy::kFull : soi::win::Accuracy::kHigh;
  soi::win::SoiProfile prof;
  {
    ScopedSpan s(tracer, "probe.window_profile");
    const double a = now_s();
    prof = soi::win::make_profile(acc);
    report.add("window.profile_s", now_s() - a, "s");
  }
  soi::tune::PlanRegistry reg;
  std::shared_ptr<const soi::core::ConvTable> dist_table;
  {
    ScopedSpan s(tracer, "probe.conv_table");
    const double a = now_s();
    if (dist) {
      dist_table = reg.conv_table(kDistN, kDistRanks, prof);
    } else {
      for (const auto n : {kLaneSmallN, kLaneLargeN}) {
        reg.conv_table(n, kServeRanks * kLaneSegmentsPerRank, prof);
      }
    }
    report.add("tune.conv_table_s", now_s() - a, "s");
  }
  if (!dist_table) dist_table = reg.conv_table(kDistN, kDistRanks, full);

  // --- net + per-rank skew + six-step baseline over shm ------------------
  DistProbe dp;
  {
    ScopedSpan s(tracer, "probe.dist_world");
    dp = probe_dist_world(full, dist_table, args.seed);
  }
  report.count(1, dp.failed > 0 ? 1 : 0);
  if (dist) report.add("soi.plan_s", dp.plan_s, "s");
  report.add("soi.dist_forward_ms", dp.forward_ms, "ms", kForwardReps);
  report.add("soi.rank_forward_ms_max", dp.rank_forward_max_ms, "ms", kForwardReps);
  report.add("soi.rank_skew_ms", dp.rank_skew_ms, "ms", kForwardReps);
  // Bytes all ranks send to each other in one SOI all-to-all.
  const double a2a_bytes = 16.0 * static_cast<double>(g.nprime()) *
                           (kDistRanks - 1) / kDistRanks;
  report.add("net.alltoall_ms", dp.alltoall_ms, "ms", kNetReps);
  report.add("net.alltoall_gbps", a2a_bytes / (dp.alltoall_ms * 1e-3) / 1e9,
             "GB/s", kNetReps);
  report.add("net.halo_us", dp.halo_us, "us", kNetReps);
  report.add("net.bytes_per_transform",
             a2a_bytes + 16.0 * static_cast<double>(g.halo() * kDistRanks), "B");
  report.add("net.msgs_per_transform",
             static_cast<double>(kDistRanks * (kDistRanks - 1) + kDistRanks),
             "count");
  report.add("net.retries", static_cast<double>(dp.retries), "count");
  report.add("net.checksum_failures", static_cast<double>(dp.checksum_failures),
             "count");
  report.add("baseline.sixstep_ms", dp.sixstep_ms, "ms", kForwardReps);
  report.add("baseline.sixstep_over_soi_dist", dp.sixstep_ms / dp.forward_ms,
             "ratio", kForwardReps);
}

void run_probes(const Args& args, Report& report, Tracer& tracer) {
  const int threads = max_threads();

  // --- host ceilings ------------------------------------------------------
  double copy = 0.0;
  {
    ScopedSpan s(tracer, "probe.host_copy");
    copy = copy_gbps();
  }
  report.add("host.copy_gbps", copy, "GB/s", 5);
  report.add("net.alltoall_frac_copy", report.get("net.alltoall_gbps") / copy,
             "share", kNetReps);
  double peak = 0.0;
  {
    ScopedSpan s(tracer, "probe.host_fft_peak");
    peak = single_thread([] {
      constexpr std::int64_t n = 256, count = 256;
      soi::fft::BatchFft plan(n);
      const soi::cvec in = make_signal(n * count, 3, 3);
      soi::cvec out(in.size());
      const double t = median_time(15, [&] { plan.forward(in, out, count); });
      return fft_flops(n) * count / t / 1e9;
    });
  }
  report.add("host.fft_peak_gflops", peak, "GFLOP/s", 15);

  // --- fft: engine passes at dist_large's rank shapes and the lane -------
  const auto full = soi::win::make_profile(soi::win::Accuracy::kFull);
  const auto high = soi::win::make_profile(soi::win::Accuracy::kHigh);
  const soi::core::SoiGeometry g(kDistN, kDistRanks, full);
  {
    ScopedSpan s(tracer, "probe.fft");
    const std::int64_t mp = g.mprime();
    auto fm = soi::fft::make_batch_plan("", mp);
    const soi::cvec in = make_signal(mp, 5, 5);
    soi::cvec out(in.size());
    const double t = median_time(9, [&] { fm->forward(in, out, 1); });
    const double gflops = fft_flops(mp) / t / 1e9;
    report.add("fft.fmprime_ms", t * 1e3, "ms", 9);
    report.add("fft.fmprime_gflops", gflops, "GFLOP/s", 9);
    report.add("fft.fmprime_frac_peak", gflops / peak, "share", 9);

    const std::int64_t count = g.chunks_per_rank();
    auto fp = soi::fft::make_batch_plan("", g.p());
    const soi::cvec pin = make_signal(g.p() * count, 6, 6);
    soi::cvec pout(pin.size());
    report.add("fft.fp_ms",
               median_time(9, [&] { fp->forward(pin, pout, count); }) * 1e3,
               "ms", 9);

    const soi::core::SoiGeometry lg(kLaneLargeN, kServeRanks * kLaneSegmentsPerRank,
                                    high);
    auto lb = soi::fft::make_batch_plan("", lg.mprime());
    const soi::cvec lin = make_signal(lg.mprime() * kLaneSegmentsPerRank, 8, 8);
    soi::cvec lout(lin.size());
    report.add("fft.lane_batch_us",
               median_time(51, [&] {
                 lb->forward(lin, lout, kLaneSegmentsPerRank);
               }) * 1e6,
               "us", 51);
  }

  // --- soi: the convolution on one rank's block of dist_large ------------
  {
    ScopedSpan s(tracer, "probe.conv");
    const soi::core::ConvTable table(g, *full.window);
    const soi::cvec in = make_signal(g.local_input(), 9, 9);
    soi::cvec out(static_cast<std::size_t>(g.chunks_per_rank() * g.p()));
    const double t =
        median_time(9, [&] { soi::core::convolve_rank(g, table, in, out); });
    const double flops = 8.0 * static_cast<double>(g.conv_madds_per_rank());
    // Computed bytes: input block + halo read, output written, and the
    // table's mu rows of B*P taps read once.
    const double bytes =
        16.0 * static_cast<double>(g.local_input() + g.chunks_per_rank() * g.p() +
                                   g.mu() * g.taps() * g.p());
    const double gflops = flops / t / 1e9;
    const double intensity = flops / bytes;
    const double roof = std::min(peak * threads, copy * intensity);
    report.add("soi.conv_ms", t * 1e3, "ms", 9);
    report.add("soi.conv_gflops", gflops, "GFLOP/s", 9);
    report.add("soi.conv_flops_per_byte", intensity, "flop/B");
    report.add("soi.conv_frac_roofline", gflops / roof, "share", 9);
  }

  // --- net over sim at the lane volume; lane plan construction -----------
  const std::vector<std::int64_t> lanes =
      args.workload == "serve_uniform" ? std::vector<std::int64_t>{kLaneLargeN}
                                       : std::vector<std::int64_t>{kLaneSmallN, kLaneLargeN};
  LaneProbe lp;
  {
    ScopedSpan s(tracer, "probe.lane_world");
    soi::tune::PlanRegistry reg;
    lp = probe_lane_world(high, lanes, reg);
  }
  if (args.workload != "dist_large") report.add("soi.plan_s", lp.plan_s, "s");
  report.add("net.lane_alltoall_us", lp.alltoall_us, "us", kNetReps);
  report.add("net.retries", report.get("net.retries") + static_cast<double>(lp.retries),
             "count");
  report.add("net.checksum_failures",
             report.get("net.checksum_failures") +
                 static_cast<double>(lp.checksum_failures),
             "count");

  // --- single-thread baselines at dist_large's N -------------------------
  const soi::cvec x = make_signal(kDistN, args.seed, 11);
  soi::cvec y(x.size());
  double plain_ms = 0.0;
  {
    ScopedSpan s(tracer, "probe.plain_fft_1t");
    soi::fft::FftPlan plan(kDistN);
    plain_ms = single_thread([&] {
      return median_time(5, [&] { plan.forward(x, y); });
    }) * 1e3;
  }
  double serial_ms = 0.0;
  {
    ScopedSpan s(tracer, "probe.soi_serial_1t");
    serial_ms = single_thread([&] {
      soi::core::SoiFftSerial plan(kDistN, kDistRanks, full);
      return median_time(5, [&] { plan.forward(x, y); });
    }) * 1e3;
  }
  report.add("baseline.plain_fft_1t_ms", plain_ms, "ms", 5);
  report.add("baseline.soi_serial_1t_ms", serial_ms, "ms", 5);
  report.add("baseline.soi_serial_over_plain_fft", serial_ms / plain_ms, "ratio", 5);
}

}  // namespace perfbench
