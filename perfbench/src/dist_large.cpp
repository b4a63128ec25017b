// dist_large: one caller runs SoiFftDist::forward back to back on a
// 2^21-point signal split over 4 forked rank processes (shm transport).
// The working set exceeds the last-level cache and every exchange crosses
// a real process boundary; the serving layer is not involved.
#include <algorithm>
#include <array>
#include <cmath>
#include <memory>

#include "common/types.hpp"
#include "fft/plan.hpp"
#include "net/registry.hpp"
#include "soi/dist.hpp"
#include "window/design.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Distinct input signals cycled through by the closed loop; each has its
/// exact reference spectrum computed once before the ranks start.
constexpr int kInputs = 2;
/// Setups timed per run; setup_s is their median.
constexpr int kSetupSamples = 5;
constexpr std::size_t kMaxTransforms = 20000;
/// Latency limit of one transform for slo_met_share.
constexpr double kLimitMs = 1000.0;

struct LoopState {
  std::int64_t count = 0;
  std::int64_t failed = 0;
  double snr_min = 1e9;
  double load_s = 0.0;
};

}  // namespace

void run_dist_large(const Args& args, Report& report, Tracer& tracer) {
  const double floor_db = snr_floor_db(soi::win::Accuracy::kFull);
  std::vector<soi::cvec> inputs;
  std::vector<soi::cvec> refs;
  {
    soi::fft::FftPlan exact(kDistN);
    for (int i = 0; i < kInputs; ++i) {
      inputs.push_back(make_signal(kDistN, args.seed, 100 + i));
      soi::cvec ref(inputs.back().size());
      exact.forward(inputs.back(), ref);
      refs.push_back(std::move(ref));
    }
  }

  SharedArray<double> rank_rss_mb(kDistRanks);
  SharedArray<double> setup(kSetupSamples);
  SharedArray<double> samples(kMaxTransforms);
  SharedArray<double> traced_samples(kMaxTransforms);
  SharedArray<std::uint8_t> passed(kMaxTransforms);  // untraced phase
  SharedArray<LoopState> state(2);  // [0] untraced, [1] traced phase

  // Everything a user pays before the first warm transform: rank team
  // fork, window profile design, conv table + plan construction, and one
  // cold transform that faults in the plan's workspace.
  auto set_up = [&](soi::net::Transport& comm, double t0) {
    const auto prof = soi::win::make_profile(soi::win::Accuracy::kFull);
    auto plan = std::make_unique<soi::core::SoiFftDist>(comm, kDistN, prof,
                                                        soi::core::DistOptions{});
    const std::int64_t m = plan->local_size();
    soi::cvec y(static_cast<std::size_t>(m));
    plan->forward(soi::cspan{inputs[0].data() + comm.rank() * m,
                             static_cast<std::size_t>(m)},
                  y);
    comm.barrier();
    return std::make_pair(std::move(plan), now_s() - t0);
  };

  for (int s = 0; s + 1 < kSetupSamples; ++s) {
    const double t0 = now_s();
    soi::net::run_world("shm", kDistRanks, [&](soi::net::Transport& comm) {
      const auto built = set_up(comm, t0);
      if (comm.rank() == 0) setup[static_cast<std::size_t>(s)] = built.second;
    });
  }

  // With --trace 1 the loop runs twice, untraced then traced, half the
  // time each; the tracing overhead is the difference of their medians.
  const double t0 = now_s();
  soi::net::run_world("shm", kDistRanks, [&](soi::net::Transport& comm) {
    auto built = set_up(comm, t0);
    auto& plan = *built.first;
    const int rank = comm.rank();
    if (rank == 0) setup[kSetupSamples - 1] = built.second;
    const std::int64_t m = plan.local_size();
    soi::cvec y(static_cast<std::size_t>(m));
    const int phases = args.trace ? 2 : 1;
    for (int phase = 0; phase < phases; ++phase) {
      tracer.enable(phase == 1);
      const double budget = args.seconds / phases;
      auto& st = state[static_cast<std::size_t>(phase)];
      auto& out = phase == 0 ? samples : traced_samples;
      const double start = now_s();
      double busy = 0.0;
      for (std::int64_t it = 0;; ++it) {
        const auto& x = inputs[static_cast<std::size_t>(it % kInputs)];
        const auto& ref = refs[static_cast<std::size_t>(it % kInputs)];
        const std::int64_t span = tracer.begin("dist.transform", it);
        comm.barrier();
        const double a = now_s();
        {
          ScopedSpan fwd(tracer, "soi.forward", it);
          plan.forward(soi::cspan{x.data() + rank * m,
                                  static_cast<std::size_t>(m)},
                       y);
        }
        {
          ScopedSpan bar(tracer, "net.barrier", it);
          comm.barrier();
        }
        const double b = now_s();
        tracer.end(span);
        busy += b - a;
        // Output check against the exact FFT of the same input, folded
        // into one collective with the stop decision (rank 0's clock).
        ScopedSpan chk(tracer, "check", it);
        std::array<double, 4> acc{};
        for (std::int64_t k = 0; k < m; ++k) {
          const auto want = ref[static_cast<std::size_t>(rank * m + k)];
          const auto got = y[static_cast<std::size_t>(k)];
          if (!std::isfinite(got.real()) || !std::isfinite(got.imag())) {
            acc[2] += 1.0;
          }
          acc[0] += std::norm(want);
          acc[1] += std::norm(got - want);
        }
        const bool last = it + 1 >= static_cast<std::int64_t>(kMaxTransforms) ||
                          now_s() - start >= budget;
        acc[3] = rank == 0 && last ? 1.0 : 0.0;
        comm.allreduce_sum(acc);
        if (rank == 0) {
          out[static_cast<std::size_t>(it)] = b - a;
          const double snr = snr_from_energies(acc[0], acc[1]);
          st.count = it + 1;
          st.snr_min = std::min(st.snr_min, snr);
          const bool ok = acc[2] == 0 && snr >= floor_db;
          if (!ok) ++st.failed;
          if (phase == 0) passed[static_cast<std::size_t>(it)] = ok ? 1 : 0;
        }
        if (acc[3] > 0) break;
      }
      if (rank == 0) st.load_s = busy;
    }
    tracer.enable(false);
    rank_rss_mb[static_cast<std::size_t>(rank)] = peak_rss_mb();
  });

  const auto& st = state[0];
  std::vector<double> ms(static_cast<std::size_t>(st.count));
  for (std::size_t i = 0; i < ms.size(); ++i) ms[i] = samples[i] * 1e3;
  std::vector<double> setups(setup.data(), setup.data() + kSetupSamples);
  double rss = peak_rss_mb();
  for (int r = 0; r < kDistRanks; ++r) {
    rss = std::max(rss, rank_rss_mb[static_cast<std::size_t>(r)]);
  }
  report.add("setup_s", quantile(setups, 0.5), "s", kSetupSamples);
  // p90: with ~110 transforms per run the highest percentile with ten
  // samples beyond it.
  report.add("latency_ms_p50", quantile(ms, 0.5), "ms", st.count);
  report.add("latency_ms_tail", quantile(ms, 0.9), "ms", st.count);
  report.add("throughput_tps", static_cast<double>(st.count) / st.load_s,
             "1/s", st.count);
  std::int64_t met = 0;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (passed[i] != 0 && ms[i] <= kLimitMs) ++met;
  }
  report.add("slo_met_share",
             static_cast<double>(met) / static_cast<double>(ms.size()), "share",
             st.count);
  report.add("snr_db_min", st.snr_min, "dB", st.count);
  report.add("peak_rss_mb", rss, "MiB", kDistRanks + 1);
  report.count(st.count, st.failed);
  if (args.trace) {
    const auto& tr = state[1];
    std::vector<double> tms(static_cast<std::size_t>(tr.count));
    for (std::size_t i = 0; i < tms.size(); ++i) {
      tms[i] = traced_samples[i] * 1e3;
    }
    const double base = quantile(ms, 0.5);
    report.add("trace.overhead_pct",
               (quantile(tms, 0.5) - base) / base * 100.0, "%", tr.count);
    report.count(tr.count, tr.failed);
  }
}

}  // namespace perfbench
