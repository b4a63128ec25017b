// soibench, the repository benchmark program. Usage:
//   soibench --workload <dist_large|serve_mixed|serve_uniform> --seed <n>
//            --seconds <s> --trace <0|1> [--out-dir <dir>]
// Prints one line per metric (name, value, unit, sample count) and, as the
// last stdout line, one JSON object {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 replays
// the workload with spans on, runs the layer probes, reports the per-layer
// metrics and writes the spans to <out-dir>/<workload>-<seed>.trace.json.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "util.hpp"
#include "workloads.hpp"

namespace {

// The metric lists BENCHMARK.json declares, in its order.
const std::vector<std::string> kEndToEnd = {
    "setup_s",       "latency_ms_p50", "latency_ms_tail", "throughput_tps",
    "slo_met_share", "snr_db_min",     "peak_rss_mb"};

struct LayerMetric {
  std::string name;
  std::string unit;
};

const std::vector<LayerMetric> kPerLayer = {
    {"host.copy_gbps", "GB/s"},
    {"host.fft_peak_gflops", "GFLOP/s"},
    {"fft.fmprime_ms", "ms"},
    {"fft.fmprime_gflops", "GFLOP/s"},
    {"fft.fmprime_frac_peak", "share"},
    {"fft.fp_ms", "ms"},
    {"fft.lane_batch_us", "us"},
    {"soi.conv_ms", "ms"},
    {"soi.conv_gflops", "GFLOP/s"},
    {"soi.conv_flops_per_byte", "flop/B"},
    {"soi.conv_frac_roofline", "share"},
    {"soi.dist_forward_ms", "ms"},
    {"soi.rank_forward_ms_max", "ms"},
    {"soi.rank_skew_ms", "ms"},
    {"soi.snr_gap_db", "dB"},
    {"net.alltoall_ms", "ms"},
    {"net.alltoall_gbps", "GB/s"},
    {"net.alltoall_frac_copy", "share"},
    {"net.halo_us", "us"},
    {"net.lane_alltoall_us", "us"},
    {"net.bytes_per_transform", "B"},
    {"net.msgs_per_transform", "count"},
    {"net.retries", "count"},
    {"net.checksum_failures", "count"},
    {"serve.request_ms_p99", "ms"},
    {"serve.submit_us_p99", "us"},
    {"serve.rejected", "count"},
    {"serve.shed", "count"},
    {"serve.failed", "count"},
    {"serve.queue_peak", "count"},
    {"serve.occupancy", "share"},
    {"serve.overlap_efficiency", "share"},
    {"serve.steady_allocs", "count"},
    {"window.profile_s", "s"},
    {"tune.conv_table_s", "s"},
    {"soi.plan_s", "s"},
    {"serve.create_lane_s", "s"},
    {"serve.warmup_s", "s"},
    {"loadgen.lag_ms_p99", "ms"},
    {"loadgen.sent", "count"},
    {"baseline.sixstep_ms", "ms"},
    {"baseline.sixstep_over_soi_dist", "ratio"},
    {"baseline.plain_fft_1t_ms", "ms"},
    {"baseline.soi_serial_1t_ms", "ms"},
    {"baseline.soi_serial_over_plain_fft", "ratio"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    Report report;
    Tracer tracer(args.trace ? std::size_t{1} << 19 : 1);
    soi::win::Accuracy tier = soi::win::Accuracy::kHigh;
    if (args.trace) {
      tracer.enable(true);
      run_fork_probes(args, report, tracer);
      tracer.enable(false);
    }
    if (args.workload == "dist_large") {
      tier = soi::win::Accuracy::kFull;
      run_dist_large(args, report, tracer);
      // dist_large bypasses the serving layer and the load generator.
      for (const auto& m : kPerLayer) {
        if (m.name.rfind("serve.", 0) == 0 || m.name.rfind("loadgen.", 0) == 0) {
          report.add(m.name, 0.0, m.unit);
        }
      }
    } else if (args.workload == "serve_mixed" ||
               args.workload == "serve_uniform") {
      run_serve(args, args.workload == "serve_mixed", report, tracer);
    } else {
      std::fprintf(stderr, "soibench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
    if (args.trace) {
      tracer.enable(true);
      run_probes(args, report, tracer);
      tracer.enable(false);
      // The measured accuracy next to the tier's design target; the floor
      // the checks apply is target - 25 dB.
      report.add("soi.snr_gap_db",
                 soi::win::target_snr_db(tier) - report.get("snr_db_min"), "dB");
      report.add("trace.spans", static_cast<double>(tracer.recorded()), "count");
      tracer.write_chrome_json(args.out_dir + "/" + args.workload + "-" +
                               std::to_string(args.seed) + ".trace.json");
    }
    std::vector<std::string> layer_names;
    for (const auto& m : kPerLayer) layer_names.push_back(m.name);
    report.select(args.trace ? layer_names : kEndToEnd);
    report.print(report.failed() == 0);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "soibench: %s\n", e.what());
    return 1;
  }
}
