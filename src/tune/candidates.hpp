// The tuning candidate space: every knob the SOI factorisation exposes
// that changes execution time without changing the answer below the
// requested accuracy floor.
//
// Knobs per (N, ranks, accuracy) key:
//   * window profile tier — the Fig. 7 B/kappa trade-off: any preset at
//     least as accurate as the requested one is admissible,
//   * segments_per_rank — Section 6's granularity (P = g * ranks),
//   * all-to-all schedule — net::AlltoallAlgo (pairwise vs direct),
//   * halo overlap — in-order vs pipelined dataflow schedule,
//   * batch_width — SoA transforms per pass of the batched FFT stages
//     (fft/batch.hpp); 0 lets the executor derive it from the SIMD tier,
//   * chunk_depth — groups the exchange..demod stages are cut into under
//     the pipelined schedule (the dataflow executor's double-buffer
//     depth); only enumerated for overlapping candidates, must divide
//     segments_per_rank.
//
// candidate_space() enumerates only FEASIBLE points: every candidate's
// SoiGeometry constructs (divisibility) and its halo fits inside one
// segment (the distributed pipeline's one-neighbour invariant).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/transport.hpp"
#include "window/design.hpp"

namespace soi::tune {

/// Identity of one tuning problem. Two runs with equal keys may share a
/// tuned decision (via WisdomStore) and constructed plans (PlanRegistry).
struct TuneKey {
  std::int64_t n = 0;                            ///< transform size
  int ranks = 1;                                 ///< communicator size
  win::Accuracy accuracy = win::Accuracy::kFull; ///< requested floor

  /// Canonical text form, e.g. "n=65536 ranks=8 acc=full"; used as the
  /// wisdom-file key and the registry key prefix.
  [[nodiscard]] std::string str() const;

  bool operator==(const TuneKey& o) const {
    return n == o.n && ranks == o.ranks && accuracy == o.accuracy;
  }
};

/// Parse the output of TuneKey::str(); throws soi::Error on malformed text.
TuneKey parse_tune_key(const std::string& text);

/// One point in the tuning space.
struct Candidate {
  win::Accuracy accuracy = win::Accuracy::kFull; ///< profile tier used
  std::int64_t segments_per_rank = 1;
  net::AlltoallAlgo alltoall_algo = net::AlltoallAlgo::kPairwise;
  bool overlap = false;
  std::int64_t batch_width = 0;  ///< SoA batch width (0 = auto from SIMD tier)
  /// Chunk groups of the pipelined exchange (DistOptions::chunk_depth);
  /// 1 = the classic whole-rank all-to-all.
  std::int64_t chunk_depth = 1;
  /// Exchange topology schedule (DistOptions::topology / net::Topology
  /// syntax): "" = the native flat all-to-all; "two-level[:G]" /
  /// "torus[:k0xk1xk2]" select the staged store-and-forward schedules.
  std::string topology;
  /// Transport backend the decision was scored on ("" = unpinned / the
  /// session default). Recorded so a wisdom line tuned against one fabric
  /// is never silently replayed on another; new fields stay trailing —
  /// candidate_space() aggregate-initialises the prefix.
  std::string transport;
  /// Erasure-coded exchange redundancy ("k+r", DistOptions::coding /
  /// net::Coding syntax; "" = coding off, retransmit-only). Trailing field
  /// of wisdom v6; prior-version lines parse with it defaulted off.
  std::string coding;

  /// Canonical text form, e.g.
  /// "tier=full spr=2 algo=direct overlap=1 bw=0 cd=1"; a non-flat
  /// topology appends " topo=<shape>", a pinned transport appends
  /// " transport=<name>" (wisdom v5), and a coded exchange appends
  /// " code=<k+r>" (wisdom v6). Round-trips through parse_candidate().
  [[nodiscard]] std::string describe() const;

  bool operator==(const Candidate& o) const {
    return accuracy == o.accuracy &&
           segments_per_rank == o.segments_per_rank &&
           alltoall_algo == o.alltoall_algo && overlap == o.overlap &&
           batch_width == o.batch_width && chunk_depth == o.chunk_depth &&
           topology == o.topology && transport == o.transport &&
           coding == o.coding;
  }
};

/// Parse the output of Candidate::describe(); throws soi::Error. Accepts
/// older wisdom lines that predate the bw / cd fields (both default — 0
/// auto width, depth 1), and v5/v6 lines' "engine=batch" pin (read as
/// unpinned; any other engine throws soi::InvalidArgumentError).
Candidate parse_candidate(const std::string& text);

/// Lowercase preset name ("full", "high", "medium", "low").
std::string accuracy_name(win::Accuracy acc);

/// Inverse of accuracy_name(); throws soi::Error on an unknown name.
win::Accuracy accuracy_from_name(const std::string& name);

/// Presets at least as accurate as `floor`, most accurate first.
std::vector<win::Accuracy> tiers_at_or_above(win::Accuracy floor);

/// Enumerate every feasible candidate for `key`, in a deterministic order
/// (tier-major, then segments_per_rank in {1,2,4,...,max_segments_per_rank},
/// then schedule, then overlap, then batch width in {0, 8, 32}, then — for
/// overlapping candidates only — chunk depth in {1, 2, 4} capped by
/// segments_per_rank, then topology). Topology variants (two-level, torus)
/// are enumerated only for pairwise/auto-width candidates on rank counts
/// where the shape is non-degenerate, flat always first, so the candidate
/// count stays bounded. The seed's hard-coded configuration — requested
/// tier, one segment per rank, pairwise, no overlap, auto width, depth 1,
/// flat — is always the first entry when feasible. Throws soi::Error if no
/// candidate is feasible at all.
std::vector<Candidate> candidate_space(const TuneKey& key,
                                       std::int64_t max_segments_per_rank = 8);

}  // namespace soi::tune
