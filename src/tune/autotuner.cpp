#include "tune/autotuner.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "net/erasure.hpp"
#include "net/registry.hpp"
#include "net/topology.hpp"
#include "soi/dist.hpp"
#include "soi/params.hpp"

namespace soi::tune {

namespace {

const net::NetworkModel& fabric_or_default(const TuneOptions& opts) {
  static const std::unique_ptr<net::NetworkModel> kDefault =
      net::make_endeavor_fat_tree();
  return opts.fabric ? *opts.fabric : *kDefault;
}

/// Fabric model for a candidate pinned to the node-local shm transport:
/// memory-bus bandwidth and sub-microsecond wakeup latency, no
/// oversubscription tier — the cluster models would price an exchange
/// that never leaves the node.
const net::NetworkModel& node_local_model() {
  static const net::FatTreeModel kLocal{{160.0, 0.3e-6},
                                        /*full_bisection_nodes=*/4096,
                                        /*oversub_exponent=*/0.0,
                                        /*alltoall_efficiency=*/1.0};
  return kLocal;
}

/// The model pricing this candidate's communication. An explicit
/// TuneOptions::fabric always wins (callers may ask "what would this
/// shm-tuned shape cost on Endeavor"); otherwise shm-pinned candidates
/// get the node-local model and everything else the default fat tree.
const net::NetworkModel& fabric_for(const TuneOptions& opts,
                                    const Candidate& cand) {
  if (opts.fabric == nullptr && cand.transport == "shm") {
    return node_local_model();
  }
  return fabric_or_default(opts);
}

PlanRegistry& registry_or_global(const TuneOptions& opts) {
  return opts.registry ? *opts.registry : PlanRegistry::global();
}

/// Per-rank compute flops of one candidate's pipeline (Section 7.4's
/// accounting): convolution madds + the two batched FFT stages + the
/// linear packing/demodulation passes.
double modeled_compute_flops(const core::SoiGeometry& g, std::int64_t spr) {
  const double p = static_cast<double>(g.p());
  const double mprime = static_cast<double>(g.mprime());
  const double chunks = static_cast<double>(spr * g.chunks_per_rank());
  const double sprd = static_cast<double>(spr);
  // Convolution: one complex madd = 8 real flops; M' * B madds per
  // geometry sub-rank, spr sub-ranks per physical rank.
  const double conv = 8.0 * sprd * static_cast<double>(g.conv_madds_per_rank());
  // I (x) F_P over the local chunks: 5 P log2 P per chunk.
  const double fp = chunks * 5.0 * p * std::log2(p);
  // F_M' per local segment.
  const double fm = sprd * 5.0 * mprime * std::log2(mprime);
  // Packing transposes (2 passes over spr*M' points) and demodulation
  // (spr*M points), ~8 flops-equivalents per point for the memory traffic.
  const double linear = 8.0 * (2.0 * sprd * mprime +
                               sprd * static_cast<double>(g.m()));
  return conv + fp + fm + linear;
}

/// Modeled communication seconds: the halo point-to-point (hidden behind
/// the convolution when the candidate overlaps) plus the single all-to-all
/// with a schedule-dependent injection term.
///
/// Flat schedules: kPairwise serialises R-1 latency-bound rounds, kDirect
/// posts everything and pays ~2 latencies. Staged topology schedules
/// replace that term with their per-phase message counts — two-level pays
/// (G-1) intra-group rounds at a 10x-cheaper latency tier plus (Q-1)
/// inter-group rounds of fused messages, and scales the volume by the
/// fraction that actually crosses the expensive tier; a torus pays
/// sum(k_d - 1) neighbour rounds with store-and-forward volume (each
/// block travels once per dimension whose coordinate differs).
///
/// A chunked pipelined exchange (overlap, chunk_depth D > 1) hides all
/// but one of its D pieces behind the downstream unpack/F_M'/demod
/// compute, but every extra in-flight group re-pays the schedule's
/// latency term — the exposed time is min(exchange,
/// max(exchange/D, exchange - downstream*(D-1)/D) + (D-1)*schedule).
/// Never more than the unchunked exchange, so the pipelined schedule is
/// never priced slower than the in-order one, while the latency surcharge
/// gives the depth knob an interior optimum per fabric.
///
/// Resilience pricing (TuneOptions::loss_rate p > 0): every schedule's
/// per-rank message count pays its expected recovery cost. Uncoded, each
/// lost message costs a detection deadline plus a retransmit round trip,
/// expected p/(1-p) times per message (retries can themselves be lost).
/// Coded (cand.coding = "k+r"), the exchange volume inflates by (k+r)/k
/// and only the p^(r+1) residual — more than r shards of one codeword
/// lost — still pays the deadline + round trip. At p = 0 the coded
/// overhead buys nothing, so retransmit-only wins; past the break-even
/// loss rate the priced order flips.
double modeled_comm_seconds(const net::NetworkModel& fabric, int ranks,
                            std::int64_t halo_bytes,
                            std::int64_t alltoall_bytes_per_rank,
                            const Candidate& cand, double conv_seconds,
                            double downstream_seconds,
                            double loss_rate = 0.0,
                            double retry_timeout_s = 0.05) {
  if (ranks <= 1) return 0.0;
  double halo = fabric.p2p_seconds(halo_bytes);
  if (cand.overlap) halo = std::max(0.0, halo - conv_seconds);
  double exchange =
      fabric.alltoall_seconds(ranks, alltoall_bytes_per_rank);
  const double lat = fabric.p2p_seconds(0);
  // Every NetworkModel folds a flat (R-1)-message injection-latency term
  // into alltoall_seconds(); strip it so `exchange` is the pure volume
  // time and the schedule term below prices latency for the candidate's
  // actual message pattern (direct / two-level / torus) without double
  // counting. Clamped for models that charge less than the flat term.
  exchange = std::max(0.0, exchange - static_cast<double>(ranks - 1) * lat);
  double schedule;
  // Messages each rank sends per exchange — the unit the per-loss recovery
  // cost below multiplies.
  double messages = static_cast<double>(ranks - 1);
  if (!cand.topology.empty() && cand.topology != "flat") {
    const net::Topology topo = net::Topology::parse(cand.topology, ranks);
    const double r = static_cast<double>(ranks);
    if (topo.kind() == net::TopologyKind::kTwoLevel) {
      // Intra-group links priced 10x cheaper than the inter-group tier —
      // the same ratio SimMPI's intra_latency_us emulation and the bench
      // acceptance gate assume for node-local fabric.
      constexpr double kIntraDiscount = 0.1;
      const double G = static_cast<double>(topo.group_size());
      const double Q = static_cast<double>(topo.groups());
      messages = (G - 1.0) + (Q - 1.0);
      schedule = (G - 1.0) * lat * kIntraDiscount + (Q - 1.0) * lat;
      // Of the R-1 blocks each rank emits, R-G cross groups at full cost;
      // (G-1)*Q travel the cheap intra tier (phase-0 fan-out).
      exchange *= ((r - G) + (G - 1.0) * Q * kIntraDiscount) / (r - 1.0);
    } else {
      // Torus: one neighbour-staged phase per dimension > 1. Phase d
      // forwards every block whose destination coordinate differs —
      // R*(k_d - 1)/k_d blocks — so volume grows store-and-forward.
      double rounds = 0.0;
      double volume_blocks = 0.0;
      for (const int k : topo.dims()) {
        if (k <= 1) continue;
        const double kd = static_cast<double>(k);
        rounds += kd - 1.0;
        volume_blocks += r * (kd - 1.0) / kd;
      }
      messages = rounds;
      schedule = rounds * lat;
      exchange *= volume_blocks / (r - 1.0);
    }
  } else {
    schedule = cand.alltoall_algo == net::AlltoallAlgo::kPairwise
                   ? static_cast<double>(ranks - 1) * lat
                   : 2.0 * lat;
  }
  net::Coding code;
  if (!cand.coding.empty()) {
    // parse_candidate validated the text; a raw Candidate with a bad
    // string just prices as uncoded.
    (void)net::Coding::parse(cand.coding, &code);
  }
  double retry_per_msg = loss_rate > 0.0 && loss_rate < 1.0
                             ? loss_rate / (1.0 - loss_rate)
                             : 0.0;
  if (code.enabled()) {
    // Parity rides the same wire: volume inflates by (k+r)/k, losses up
    // to r per codeword are absorbed locally, and only the residual
    // P(> r of one codeword's shards lost) ~ p^(r+1) still pays the
    // retransmit machinery.
    exchange *= static_cast<double>(code.total()) /
                static_cast<double>(code.k);
    retry_per_msg = std::pow(loss_rate, static_cast<double>(code.r + 1));
  }
  if (cand.overlap && cand.chunk_depth > 1) {
    const double d = static_cast<double>(cand.chunk_depth);
    const double overlapped = std::max(
        exchange / d, exchange - downstream_seconds * (d - 1.0) / d);
    exchange =
        std::min(exchange, overlapped + (d - 1.0) * schedule);
  }
  const double resilience =
      messages * retry_per_msg * (retry_timeout_s + 2.0 * lat);
  return halo + exchange + schedule + resilience;
}

CandidateScore score_modeled(const TuneKey& key, const Candidate& cand,
                             const TuneOptions& opts,
                             const win::SoiProfile& prof) {
  const core::SoiGeometry g(key.n, key.ranks * cand.segments_per_rank, prof);
  CandidateScore score;
  score.candidate = cand;
  const double rate = opts.node_gflops * 1e9;
  score.compute_seconds =
      modeled_compute_flops(g, cand.segments_per_rank) / rate;
  // Shares of the compute that are convolution (the halo's overlap
  // budget) and the post-exchange stages (the chunked exchange's).
  const double conv_share =
      8.0 * static_cast<double>(cand.segments_per_rank) *
      static_cast<double>(g.conv_madds_per_rank()) / rate;
  const double sprd = static_cast<double>(cand.segments_per_rank);
  const double mprime = static_cast<double>(g.mprime());
  const double downstream_share =
      (sprd * 5.0 * mprime * std::log2(mprime) +
       8.0 * (2.0 * sprd * mprime + sprd * static_cast<double>(g.m()))) /
      rate;
  const std::int64_t halo_bytes =
      static_cast<std::int64_t>(sizeof(cplx)) * g.halo();
  const std::int64_t a2a_bytes = static_cast<std::int64_t>(sizeof(cplx)) *
                                 cand.segments_per_rank *
                                 cand.segments_per_rank *
                                 g.chunks_per_rank() * (key.ranks - 1);
  score.comm_seconds =
      modeled_comm_seconds(fabric_for(opts, cand), key.ranks, halo_bytes,
                           a2a_bytes, cand, conv_share, downstream_share,
                           opts.loss_rate, opts.retry_timeout_s);
  return score;
}

CandidateScore score_measured(const TuneKey& key, const Candidate& cand,
                              const TuneOptions& opts,
                              const win::SoiProfile& prof) {
  PlanRegistry& reg = registry_or_global(opts);
  const int reps = std::max(1, opts.reps);
  // Deterministic test signal, one block per rank.
  cvec x(static_cast<std::size_t>(key.n));
  fill_gaussian(x, opts.seed);

  double compute_best = 0.0;
  double conv_best = 0.0;
  double downstream_best = 0.0;
  std::int64_t halo_bytes = 0, alltoall_bytes = 0;
  std::vector<std::pair<std::string, double>> stage_seconds;
  std::mutex mu;
  // The rank bodies write their measurements into captured locals, which
  // only works when every rank shares this address space — reject
  // cross-process transports up front with a typed error instead of
  // silently returning unwritten zeros.
  const std::string tname =
      cand.transport.empty() ? net::default_transport() : cand.transport;
  if (!net::TransportRegistry::instance().caps(tname).threaded_world) {
    throw InvalidArgumentError(
        "autotune: measured mode runs the rank team in-process; transport '" +
        tname +
        "' is cross-process — use modeled mode or a threaded_world "
        "transport (e.g. \"sim\")");
  }
  net::run_world(tname, key.ranks, [&](net::Transport& comm) {
    core::DistOptions dopts;
    dopts.segments_per_rank = cand.segments_per_rank;
    dopts.alltoall_algo = cand.alltoall_algo;
    dopts.overlap = cand.overlap;
    dopts.batch_width = cand.batch_width;
    dopts.chunk_depth = cand.chunk_depth;
    dopts.topology = cand.topology;
    if (!cand.coding.empty()) {
      (void)net::Coding::parse(cand.coding, &dopts.coding);
    }
    // All ranks share one registry-built table.
    dopts.table =
        reg.conv_table(key.n, key.ranks * cand.segments_per_rank, prof);
    core::SoiFftDist plan(comm, key.n, prof, dopts);
    const std::int64_t m_rank = plan.local_size();
    cvec y(static_cast<std::size_t>(m_rank));
    // Per-stage minima across reps: taking each stage's own best filters
    // scheduling noise better than min over whole-pipeline sums (the
    // stages are independent kernels; their noise is uncorrelated).
    std::vector<double> best_sec;
    for (int r = 0; r < reps; ++r) {
      plan.forward(cspan{x.data() + comm.rank() * m_rank,
                         static_cast<std::size_t>(m_rank)},
                   y);
      const auto recs = plan.last_trace().records();
      if (best_sec.empty()) best_sec.assign(recs.size(), 1e300);
      for (std::size_t i = 0; i < recs.size(); ++i) {
        const double sec = opts.stage_cost
                               ? opts.stage_cost(key, cand, recs[i].name, r)
                               : recs[i].seconds;
        best_sec[i] = std::min(best_sec[i], sec);
      }
    }
    const auto recs = plan.last_trace().records();
    double compute = 0.0, conv = 0.0, downstream = 0.0;
    std::int64_t hb = 0, ab = 0;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (recs[i].name == "halo") {
        hb += recs[i].bytes_moved;
      } else if (recs[i].name == "exchange") {
        ab += recs[i].bytes_moved;
      } else {
        // Everything SimMPI cannot price: the local kernels.
        compute += best_sec[i];
        if (recs[i].name == "conv") conv += best_sec[i];
        if (recs[i].name == "unpack" || recs[i].name == "f_mprime" ||
            recs[i].name == "demod") {
          downstream += best_sec[i];
        }
      }
    }
    // The slowest rank sets the pipeline's compute critical path.
    const double worst = comm.allreduce_max(compute);
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      compute_best = worst;
      conv_best = conv;
      downstream_best = downstream;
      halo_bytes = hb;
      alltoall_bytes = ab;
      // Rank 0's per-stage minima become the wisdom entry's priors.
      stage_seconds.clear();
      stage_seconds.reserve(recs.size());
      for (std::size_t i = 0; i < recs.size(); ++i) {
        stage_seconds.emplace_back(recs[i].name, best_sec[i]);
      }
    }
  });

  CandidateScore score;
  score.candidate = cand;
  score.compute_seconds = compute_best;
  score.comm_seconds =
      modeled_comm_seconds(fabric_for(opts, cand), key.ranks, halo_bytes,
                           alltoall_bytes, cand, conv_best, downstream_best,
                           opts.loss_rate, opts.retry_timeout_s);
  score.stage_seconds = std::move(stage_seconds);
  return score;
}

}  // namespace

CandidateScore score_candidate(const TuneKey& key, const Candidate& cand,
                               const TuneOptions& opts) {
  const auto prof = registry_or_global(opts).profile(cand.accuracy);
  return opts.mode == TuneMode::kModeled
             ? score_modeled(key, cand, opts, *prof)
             : score_measured(key, cand, opts, *prof);
}

namespace {

/// Nearest previously tuned shape carrying per-stage priors: same ranks
/// and accuracy, smallest |log2(n / key.n)|. Only entries with measured
/// stage seconds qualify (wisdom v3+) — modeled wisdom has no measured
/// stage split to learn from. Returns nullptr when none qualifies;
/// `neighbour_key`, when non-null, receives the winning entry's key.
const TunedConfig* nearest_stage_priors(const TuneKey& key,
                                        const WisdomStore& priors,
                                        TuneKey* neighbour_key = nullptr) {
  const TunedConfig* best = nullptr;
  double best_dist = 0.0;
  for (const auto& [ktext, cfg] : priors.entries()) {
    if (cfg.stage_seconds.empty()) continue;
    const TuneKey k = parse_tune_key(ktext);
    if (k.ranks != key.ranks || k.accuracy != key.accuracy) continue;
    const double dist = std::abs(std::log2(static_cast<double>(k.n)) -
                                 std::log2(static_cast<double>(key.n)));
    if (best == nullptr || dist < best_dist) {
      best = &cfg;
      best_dist = dist;
      if (neighbour_key != nullptr) *neighbour_key = k;
    }
  }
  return best;
}

}  // namespace

void order_candidates_with_priors(std::vector<Candidate>& candidates,
                                  const TuneKey& key,
                                  const WisdomStore& priors) {
  const TunedConfig* nb = nearest_stage_priors(key, priors);
  if (nb == nullptr) return;

  double total = 0.0, comm = 0.0;
  for (const auto& [name, sec] : nb->stage_seconds) {
    total += sec;
    if (name == "halo" || name == "exchange") comm += sec;
  }
  if (total <= 0.0 || comm / total <= 0.4) return;
  // Comm-bound neighbour: evaluate overlapping/chunked candidates first.
  // stable_partition keeps the relative enumeration order inside each
  // class, so determinism and tie-breaks within a class are preserved.
  std::stable_partition(candidates.begin(), candidates.end(),
                        [](const Candidate& c) {
                          return c.overlap || c.chunk_depth > 1;
                        });
}

TuneResult autotune(const TuneKey& key, const TuneOptions& opts) {
  auto candidates = candidate_space(key, opts.max_segments_per_rank);
  // Pin every candidate to the sweep's transport (stamped BEFORE scoring,
  // so the scorers price it, and carried into the winning wisdom line — a
  // decision tuned on one fabric never silently replays on another).
  if (!opts.transport.empty()) {
    for (auto& c : candidates) c.transport = opts.transport;
  }
  if (opts.priors != nullptr) {
    order_candidates_with_priors(candidates, key, *opts.priors);
  }
  // Rep gating (kMeasured + priors): price every candidate with the
  // modeled scorer at a node rate CALIBRATED against the stage-prior
  // neighbour's measured compute, then demote candidates priced more
  // than rep_gate_factor x the modeled front to one measured rep. A
  // gated candidate's per-stage minima can only come out >= the
  // full-budget ones, so a genuinely far-off candidate still loses —
  // the winner is unchanged, only the wall time shrinks.
  std::vector<double> priced;
  double front = 1e300;
  if (opts.mode == TuneMode::kMeasured && opts.rep_gating && opts.reps > 1 &&
      opts.priors != nullptr) {
    TuneKey nkey;
    const TunedConfig* nb = nearest_stage_priors(key, *opts.priors, &nkey);
    if (nb != nullptr) {
      TuneOptions mopts = opts;
      mopts.mode = TuneMode::kModeled;
      double measured = 0.0;
      for (const auto& [name, sec] : nb->stage_seconds) {
        if (name != "halo" && name != "exchange") measured += sec;
      }
      const double modeled =
          score_candidate(nkey, nb->candidate, mopts).compute_seconds;
      if (measured > 0.0 && modeled > 0.0) {
        // nominal rate x (modeled@nominal / measured) = this machine's
        // effective rate on the neighbour's kernels.
        mopts.node_gflops = opts.node_gflops * modeled / measured;
      }
      priced.reserve(candidates.size());
      for (const auto& c : candidates) {
        priced.push_back(score_candidate(key, c, mopts).total_seconds());
        front = std::min(front, priced.back());
      }
    }
  }
  TuneResult result;
  result.key = key;
  result.scores.reserve(candidates.size());
  std::size_t best_idx = 0;
  const double gate = front * std::max(1.0, opts.rep_gate_factor);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    TuneOptions sopts = opts;
    if (!priced.empty() && priced[i] > gate) {
      sopts.reps = 1;
      ++result.gated_candidates;
    }
    result.scores.push_back(score_candidate(key, candidates[i], sopts));
    if (result.scores[i].total_seconds() <
        result.scores[best_idx].total_seconds()) {
      best_idx = i;  // strict '<': ties keep the earliest (default) entry
    }
  }
  result.best = result.scores[best_idx];
  result.profile =
      *registry_or_global(opts).profile(result.best.candidate.accuracy);
  return result;
}

TunedConfig tuned_config(const TuneKey& key, WisdomStore& wisdom,
                         const TuneOptions& opts, bool* was_hit) {
  if (auto hit = wisdom.find(key)) {
    if (was_hit) *was_hit = true;
    return *hit;
  }
  if (was_hit) *was_hit = false;
  // The store being filled doubles as the priors source: shapes tuned
  // earlier in this store steer the evaluation order of this sweep.
  TuneOptions sweep_opts = opts;
  if (sweep_opts.priors == nullptr) sweep_opts.priors = &wisdom;
  const TuneResult result = autotune(key, sweep_opts);
  const TunedConfig cfg = result.config();
  wisdom.put(key, cfg);
  return cfg;
}

}  // namespace soi::tune
