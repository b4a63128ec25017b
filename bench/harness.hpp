// Shared bench harness: the measured-compute / modeled-communication
// methodology used by every figure bench.
//
// A real weak-scaling run (2^28 points on each of n cluster nodes) cannot
// execute in this build environment. What CAN be measured honestly on this
// machine is one rank's node-local compute at its exact per-rank sizes:
// the convolution (S + halo -> S(1+beta)), the batched F_P, the F_M' (or
// F_M), packing transposes, twiddles and demodulation. Communication time
// comes from the fabric models (net/costmodel.hpp), exactly as the paper's
// own Section 7.4 model does — the paper validates the same composition in
// Fig. 8.  Cluster time = sum of per-rank phase times + modeled exchanges.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/costmodel.hpp"
#include "soi/exec.hpp"
#include "window/design.hpp"

namespace soi::bench {

/// --- machine-readable output (--json) ------------------------------------
///
/// Benches that accept `--json` replace their human-readable tables with
/// one JSON array of measurement records on stdout, ready to append to the
/// BENCH_*.json perf-trajectory files tracked across PRs. Schema per
/// record (docs/ALGORITHM.md Section 10.4):
///   {"bench","case","n","batch","seconds","gflops","ns_per_point",
///    "peak_rss_bytes","steady_state_allocs","overlap_efficiency"?,
///    "bisection_bytes"?,
///    "faults_injected"?,"retries"?,"checksum_failures"?,
///    "resilience_overhead"?,"recovered_chunks"?,"parity_bytes"?,
///    "coding_overhead"?,"p50_ms"?,"p99_ms"?,"transforms_per_sec"?,
///    "admitted"?,"rejected"?,"queue_peak"?,"shed"?,"tiers"?,
///    "transport"?,"stages"?}
/// `overlap_efficiency` (present when the bench captured a pipeline trace)
/// is exec::overlap_efficiency() of that trace: 1 - wait/total, clamped to
/// [0, 1]. The resilience triple (present when the bench sampled its
/// world's fault counters) reports injected faults, bounded-wait retries
/// and CRC rejections for the record's runs; `resilience_overhead` is the
/// fault-free relative cost of checksums + the residual guard. `shed`
/// (present with the queueing fields when the bench used deadlines)
/// counts requests dropped BEFORE execution by deadline-aware load
/// shedding — disjoint from `rejected` (admission refusals) and from
/// failures. `tiers` (present when the bench tagged requests with
/// priorities) is an array of
/// {"tier","admitted","completed","shed","p50_ms","p99_ms"} objects, one
/// per priority tier that saw traffic. `stages`
/// (trace condition) is an array of
/// {"stage","chunks","seconds","wait_seconds","retries","bytes",
/// "measured","flops"} objects whose seconds sum to ~the record's pipeline
/// wall time; `measured` tells whether `bytes` was counted from actual
/// SimMPI traffic (true) or estimated from the data layout (false).
struct BenchRecord {
  std::string bench;       ///< binary name, e.g. "bench_batch_fft"
  std::string label;       ///< case within the bench, e.g. "batched"
  std::int64_t n = 0;      ///< transform length (points)
  std::int64_t batch = 1;  ///< transforms per timed call
  double seconds = 0.0;    ///< best-of wall time of one call
  double gflops = 0.0;     ///< 5 N log2 N scale over all `batch` transforms
  double ns_per_point = 0.0;
  std::int64_t peak_rss_bytes = 0;  ///< process peak RSS at record time
  /// Heap allocations (aligned_alloc_bytes calls) during one steady-state
  /// execution; -1 = the bench did not measure it.
  std::int64_t steady_state_allocs = -1;
  /// exec::overlap_efficiency() of the captured trace; -1 = no trace.
  double overlap_efficiency = -1.0;
  /// Bytes the exchange pushes across the ranks/2 bisection cut under the
  /// record's topology schedule (net::StagedPlan::bisection_blocks x block
  /// bytes; flat via net::flat_bisection_blocks). -1 = not an exchange
  /// bench. The same cut is used for every schedule, so flat / two-level /
  /// torus records are directly comparable.
  std::int64_t bisection_bytes = -1;
  /// Resilience counters of the record's world (-1 = not measured):
  /// injected faults, bounded-wait retries summed over the trace, and
  /// CRC/size verification rejections.
  std::int64_t faults_injected = -1;
  std::int64_t retries = -1;
  std::int64_t checksum_failures = -1;
  /// Fault-free wall-time overhead of the integrity layer (checksums +
  /// residual guard) relative to running with both disabled:
  /// seconds_on / seconds_off - 1. Negative sentinel = not measured.
  double resilience_overhead = -1.0;
  /// Coded-exchange counters (-1 = the record did not run coded): shards
  /// rebuilt from parity instead of retransmitted, and parity payload
  /// bytes pushed onto the wire, summed over all ranks of the record's
  /// runs.
  std::int64_t recovered_chunks = -1;
  std::int64_t parity_bytes = -1;
  /// Wire-volume inflation of the erasure code, (k + r) / k; negative
  /// sentinel = uncoded.
  double coding_overhead = -1.0;
  /// Queueing fields (bench_serve): request latency quantiles, sustained
  /// completion rate, and admission counters of the serving epoch.
  /// Negative sentinels = the bench did not serve requests.
  double p50_ms = -1.0;
  double p99_ms = -1.0;
  double transforms_per_sec = -1.0;
  std::int64_t admitted = -1;
  std::int64_t rejected = -1;
  std::int64_t queue_peak = -1;
  /// Requests shed before execution by deadline-aware load shedding;
  /// -1 = the bench did not use deadlines.
  std::int64_t shed = -1;
  /// Per-priority-tier queue statistics (empty = untagged requests; the
  /// "tiers" array is omitted from the JSON).
  struct TierRecord {
    std::string tier;  ///< "interactive" | "batch" | "background"
    std::int64_t admitted = 0;
    std::int64_t completed = 0;
    std::int64_t shed = 0;
    double p50_ms = -1.0;
    double p99_ms = -1.0;
  };
  std::vector<TierRecord> tiers;
  /// Transport the record's runs executed on (empty = the record is not
  /// transport-specific; the field is omitted from the JSON). Benches that
  /// launch rank teams stamp the RESOLVED name here, so perf-trajectory
  /// files distinguish e.g. sim- from shm-transport runs.
  std::string transport;
  /// Per-stage trace of the timed pipeline execution (empty = no trace).
  std::vector<exec::StageRecord> stages;
};

/// True when `--json` appears anywhere in argv.
bool json_mode(int argc, char** argv);

/// Process-wide CPU time (user + system, all threads) in seconds. The
/// robust clock for overhead comparisons on an oversubscribed host, where
/// wall-clock scheduling noise dwarfs small CPU-work deltas.
double process_cpu_seconds();

/// Build a record with the derived rate fields (gflops, ns_per_point)
/// filled in from n/batch/seconds.
BenchRecord make_record(std::string bench, std::string label, std::int64_t n,
                        std::int64_t batch, double seconds);

/// Records as a JSON array, one record object per line.
std::string to_json(const std::vector<BenchRecord>& records);

/// One rank's measured compute phases (seconds, best of `reps`).
struct RankCompute {
  double conv = 0.0;     ///< SOI only: W x
  double fp = 0.0;       ///< batched F_P (step 2 / pipeline stage 3)
  double pack = 0.0;     ///< local transposes
  double fm = 0.0;       ///< F_M' (SOI) or F_M (baseline)
  double twiddle = 0.0;  ///< baseline only
  double demod = 0.0;    ///< SOI only
  [[nodiscard]] double total() const {
    return conv + fp + pack + fm + twiddle + demod;
  }
};

/// Measure one SOI rank's compute at S points/rank in an n-rank world.
/// `max_segments_per_rank` caps the adaptive segmentation (the paper's
/// 8/process by default); pass a smaller cap to hold the geometry fixed
/// across profiles in ablation sweeps.
RankCompute measure_soi_rank(std::int64_t points_per_rank, int nodes,
                             const win::SoiProfile& profile, int reps,
                             std::int64_t max_segments_per_rank = 8);

/// Measure one six-step-baseline rank's compute at S points/rank.
RankCompute measure_sixstep_rank(std::int64_t points_per_rank, int nodes,
                                 int reps);

/// Composed modeled cluster execution time.
struct ClusterTime {
  double compute = 0.0;
  double comm = 0.0;
  [[nodiscard]] double total() const { return compute + comm; }
};

/// SOI: one all-to-all of (1+beta) S complex per node + the halo sendrecv.
ClusterTime soi_cluster_time(const RankCompute& rc,
                             const net::NetworkModel& net, int nodes,
                             std::int64_t points_per_rank,
                             const win::SoiProfile& profile);

/// Baseline: three all-to-alls of S complex per node.
ClusterTime sixstep_cluster_time(const RankCompute& rc,
                                 const net::NetworkModel& net, int nodes,
                                 std::int64_t points_per_rank);

/// The paper's GFLOPS metric for N = S * nodes in `seconds`.
double gflops(std::int64_t points_per_rank, int nodes, double seconds);

/// Bench scale knobs (env-overridable so the same binaries run smoke or
/// full sweeps): SOI_BENCH_POINTS_LOG2 (default 17), SOI_BENCH_REPS
/// (default 3), SOI_BENCH_MAX_NODES (default 64).
struct BenchScale {
  std::int64_t points_per_rank;
  int reps;
  int max_nodes;
};
BenchScale bench_scale();

/// --- balance-preserving fabric scaling -----------------------------------
///
/// The paper's clusters pair ~330-GFLOPS nodes (FFT running at ~10% of
/// peak, Section 7.4) with QDR InfiniBand. This build measures compute on
/// a single small core, so composing those measurements with a full-speed
/// QDR fabric would distort the communication-to-computation balance by
/// >10x and bury every communication effect. The standard simulation
/// practice is to preserve the machine BALANCE (bytes moved per flop):
/// fabric bandwidths are multiplied by
///     scale = measured_node_fft_gflops / kPaperNodeFftGflops
/// so one transpose costs the same number of node-FFT-times as it did on
/// the paper's testbed. Absolute times are then not comparable to the
/// paper's (documented in EXPERIMENTS.md); ratios and shapes are.
inline constexpr double kPaperNodeFftGflops = 30.0;  // ~10% of 330 peak

/// Measured effective GFLOPS of the node-local FFT at S points.
double measured_fft_gflops(std::int64_t points_per_rank, int reps);

/// scale = measured / paper (see above).
double fabric_balance_scale(std::int64_t points_per_rank, int reps);

/// The three paper fabrics with bandwidths scaled by `scale` (latencies are
/// scaled too: message-rate balance follows the same argument).
std::unique_ptr<net::NetworkModel> scaled_fat_tree(double scale);
std::unique_ptr<net::NetworkModel> scaled_torus(double scale);
std::unique_ptr<net::NetworkModel> scaled_ethernet(double scale);

/// --- topology-pricing parity (figure benches) ----------------------------
///
/// The figure reproductions above price the FLAT exchange; the autotuner
/// additionally prices staged topology schedules (two-level, torus) on the
/// same fabric models. This check pins the two layers together at the
/// figure's shape: a "" and an explicit "flat" topology candidate must
/// price bit-identically, the two-level schedule must never price above
/// flat pairwise (it strictly reduces both rounds and expensive-tier
/// volume in the model), and the torus estimate must stay within a broad
/// sanity band of flat — so the topology knob cannot silently invalidate
/// the flat-priced figures. Prints one summary line with the ratios;
/// throws soi::Error on violation.
void check_topology_pricing_parity(const net::NetworkModel& fabric,
                                   std::int64_t points_per_rank, int nodes,
                                   win::Accuracy accuracy);

/// Derating factors for the baseline "library classes" in Fig. 5: the
/// paper compares against Intel MKL, FFTW and FFTE, which differ mainly in
/// node-local efficiency. Our six-step measurement plays MKL; the others
/// are modeled as the same algorithm at the relative node-local efficiency
/// typically reported for these libraries (documented in EXPERIMENTS.md).
inline constexpr double kMklClassEfficiency = 1.00;
inline constexpr double kFftwClassEfficiency = 0.80;
inline constexpr double kFfteClassEfficiency = 0.65;

}  // namespace soi::bench
