// The benchmark's workloads and its layer probes. Each entry point adds
// its metrics to the report and counts every output it checked.
#pragma once

#include <cstdint>

#include "util.hpp"
#include "window/design.hpp"

namespace perfbench {

/// dist_large's shape: N points over kDistRanks shm rank processes.
inline constexpr std::int64_t kDistN = std::int64_t{1} << 21;
inline constexpr int kDistRanks = 4;
/// Serve lanes: small (interactive) and large (batch) transform lengths.
inline constexpr std::int64_t kLaneSmallN = std::int64_t{1} << 13;
inline constexpr std::int64_t kLaneLargeN = std::int64_t{1} << 14;
inline constexpr int kServeRanks = 4;
inline constexpr std::int64_t kLaneSegmentsPerRank = 2;
inline constexpr double kWireLatencyUs = 150.0;

/// Output acceptance floor of a tier: its design SNR target minus the
/// 25 dB margin the repository's own accuracy tests allow.
inline double snr_floor_db(soi::win::Accuracy acc) {
  return soi::win::target_snr_db(acc) - 25.0;
}

/// dist_large: closed-loop core::SoiFftDist forward at N = 2^21 on 4 shm
/// rank processes, full accuracy tier, default DistOptions.
void run_dist_large(const Args& args, Report& report, Tracer& tracer);

/// serve_mixed (mixed = true): open-loop Poisson traffic, 70% interactive
/// 2^13 / 30% batch 2^14, through serve::TransformService over sim.
/// serve_uniform (mixed = false): one 2^14 batch lane driven closed-loop
/// with 8 requests outstanding.
void run_serve(const Args& args, bool mixed, Report& report, Tracer& tracer);

/// Layer probes that fork shm rank processes: window/tune setup pieces,
/// per-rank forward times, the raw exchange and halo at dist_large's
/// volume, and the six-step baseline. They run before the workload,
/// while the process holds no other threads (a fork copies only the
/// calling thread, so locks and OpenMP pools held elsewhere would hang
/// the children).
void run_fork_probes(const Args& args, Report& report, Tracer& tracer);

/// In-process layer probes of the traced run: host ceilings, fft/soi
/// entry points at the workloads' shapes, the lane exchange over sim and
/// the single-thread baselines. Needs run_fork_probes' metrics.
void run_probes(const Args& args, Report& report, Tracer& tracer);

}  // namespace perfbench
