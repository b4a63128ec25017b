// The autotuner: scores every feasible candidate of a (N, ranks, accuracy)
// key and picks the fastest, in one of two modes.
//
//   kModeled  — fully deterministic. Per-rank compute is counted from the
//               geometry's flop accounting (Section 7.4) at a fixed nominal
//               node rate; communication comes from the fabric cost models
//               plus a per-message schedule term that separates the two
//               all-to-all algorithms. Same key + options => same winner,
//               bit for bit. This is the default: wisdom produced on one
//               run reproduces on the next.
//
//   kMeasured — per-rank compute is MEASURED by executing each candidate's
//               SoiFftDist pipeline on an in-process rank team (any
//               registered transport with threaded_world capability;
//               cross-process fabrics are rejected with a typed error)
//               against a deterministic
//               Gaussian input (fixed RNG seed) and taking the best of
//               `reps` repetitions of SoiDistBreakdown::compute_total();
//               communication is still modeled from the recorded volumes
//               (the harness's measured-compute / modeled-comm
//               methodology). Winner may vary with machine noise,
//               unless TuneOptions::stage_cost replaces the wall clock.
//
// Either way the seed's hard-coded default configuration is in the
// candidate set, so the tuned choice is never worse than the default
// under the scoring used.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "net/costmodel.hpp"
#include "tune/candidates.hpp"
#include "tune/registry.hpp"
#include "tune/wisdom.hpp"

namespace soi::tune {

enum class TuneMode {
  kModeled,   ///< deterministic analytic scoring (default)
  kMeasured,  ///< wall-clock compute via in-process execution
};

struct TuneOptions {
  TuneMode mode = TuneMode::kModeled;
  /// Transport backend the decision targets ("" = unpinned: score for the
  /// session default and record no pin). Pinned sweeps stamp every
  /// candidate, so the wisdom line replays only on that backend; the
  /// modeled scorer prices the node-local "shm" fabric at memory-bus
  /// bandwidth instead of the cluster model, and the measured scorer runs
  /// the rank team on the named transport (which must report
  /// threaded_world — cross-process fabrics throw InvalidArgumentError).
  std::string transport;
  /// Repetitions per candidate in kMeasured mode (best-of).
  int reps = 3;
  /// kMeasured + priors: gate the measurement budget by stage priors.
  /// When the nearest tuned neighbour carries per-stage seconds (wisdom
  /// v3+), the sweep first prices every candidate with the modeled
  /// scorer at a node rate CALIBRATED against the neighbour's measured
  /// compute; candidates priced more than rep_gate_factor x the modeled
  /// front run a single repetition instead of `reps` (per-stage minima
  /// can only stay >= with fewer reps, so a far-off candidate cannot
  /// sneak past the front — winners are unchanged, wall time shrinks).
  /// TuneResult::gated_candidates reports how many were demoted.
  bool rep_gating = true;
  /// Modeled-price multiple of the front beyond which a candidate's
  /// measurement budget drops to one rep.
  double rep_gate_factor = 2.0;
  /// kMeasured: optional stage-cost oracle. When set, every candidate's
  /// plan still runs (the stage list and the bytes the modeled comm
  /// prices come from its real trace), but the seconds of stage `stage`
  /// in repetition `rep` are taken from this function instead of the
  /// wall clock — a deterministic timing source for testing the sweep
  /// logic (rep gating, prior ordering, tie-breaks) without scheduler
  /// noise. Called concurrently from every rank: it must be pure.
  std::function<double(const TuneKey& key, const Candidate& cand,
                       std::string_view stage, int rep)>
      stage_cost;
  /// RNG seed of the deterministic test signal (kMeasured input).
  std::uint64_t seed = 1;
  /// Nominal node compute rate for kModeled scoring, GFLOPS. Any fixed
  /// value yields a deterministic tuner; this one approximates the class
  /// of node this build targets.
  double node_gflops = 4.0;
  /// Fabric whose cost model prices the communication; null = the
  /// Endeavor fat tree (the paper's primary testbed).
  const net::NetworkModel* fabric = nullptr;
  /// Expected per-message loss probability of the target fabric, folded
  /// into the modeled score: an uncoded exchange pays
  /// messages x p/(1-p) x (retry_timeout_s + 2 x latency) for detection +
  /// retransmit round trips, a coded one inflates the wire volume by
  /// (k+r)/k but only pays the p^(r+1) residual (> r shards of one
  /// codeword lost). 0 (the default) prices a clean fabric, where the
  /// parity overhead makes retransmit-only win.
  double loss_rate = 0.0;
  /// Modeled detection deadline of one lost-message retry, seconds —
  /// the bounded-wait timeout the resilient exchange arms (NetOptions
  /// timeout tier, 50 ms by default).
  double retry_timeout_s = 0.05;
  /// Cap on the segments-per-rank knob (the paper uses up to 8).
  std::int64_t max_segments_per_rank = 8;
  /// Registry the sweep draws profiles/tables from; null = the global one.
  PlanRegistry* registry = nullptr;
  /// Optional wisdom store consulted for PRIORS: per-stage seconds of
  /// previously tuned neighbouring shapes reorder the candidate
  /// evaluation (comm-bound neighbours promote overlapping/chunked
  /// candidates). Ordering only — every candidate is still scored, and
  /// the default configuration still wins exact ties it partakes in
  /// first. tuned_config() passes its own store automatically.
  const WisdomStore* priors = nullptr;
};

/// One scored candidate.
struct CandidateScore {
  Candidate candidate;
  double compute_seconds = 0.0;  ///< per-rank compute critical path
  double comm_seconds = 0.0;     ///< modeled halo + all-to-all
  /// Measured per-stage seconds (kMeasured mode only; empty when
  /// modeled). Becomes the wisdom entry's stage priors.
  std::vector<std::pair<std::string, double>> stage_seconds;
  [[nodiscard]] double total_seconds() const {
    return compute_seconds + comm_seconds;
  }
};

/// Sweep outcome: the winner plus every score (enumeration order).
struct TuneResult {
  TuneKey key;
  CandidateScore best;
  win::SoiProfile profile;  ///< profile of the winning tier
  std::vector<CandidateScore> scores;
  /// kMeasured sweeps: candidates whose measurement budget was gated to
  /// one rep because stage priors priced them far off the front
  /// (TuneOptions::rep_gating); 0 in modeled mode or without priors.
  int gated_candidates = 0;

  /// The winner as a wisdom entry (measured stage timings ride along as
  /// the priors of later sweeps).
  [[nodiscard]] TunedConfig config() const {
    return TunedConfig{best.candidate, profile, best.total_seconds(),
                       best.stage_seconds};
  }
};

/// Score one candidate (exposed for benches; autotune() loops over this).
CandidateScore score_candidate(const TuneKey& key, const Candidate& cand,
                               const TuneOptions& opts = {});

/// Stable-reorder `candidates` using stage priors from `priors`: when the
/// nearest previously tuned shape (same ranks and accuracy, smallest
/// |log2(n ratio)|) spent more than 40% of its stage time in
/// communication (halo + exchange), overlapping/chunked candidates move
/// to the front. No candidate is added or removed; without a usable
/// neighbour the order is untouched. Exposed for tests; autotune() calls
/// this when TuneOptions::priors is set.
void order_candidates_with_priors(std::vector<Candidate>& candidates,
                                  const TuneKey& key,
                                  const WisdomStore& priors);

/// Sweep the candidate space of `key` and return the fastest candidate
/// (ties break toward the earliest enumerated, i.e. the default config).
TuneResult autotune(const TuneKey& key, const TuneOptions& opts = {});

/// Tune-or-reuse: return wisdom's decision for `key` when present (a cache
/// hit — no sweep runs), otherwise autotune and record the result in
/// `wisdom`. `was_hit` (optional) reports which path was taken.
TunedConfig tuned_config(const TuneKey& key, WisdomStore& wisdom,
                         const TuneOptions& opts = {},
                         bool* was_hit = nullptr);

}  // namespace soi::tune
