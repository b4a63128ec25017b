#include "tune/candidates.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "net/erasure.hpp"
#include "net/topology.hpp"
#include "soi/params.hpp"
#include "tune/registry.hpp"

namespace soi::tune {

std::string accuracy_name(win::Accuracy acc) {
  switch (acc) {
    case win::Accuracy::kFull: return "full";
    case win::Accuracy::kHigh: return "high";
    case win::Accuracy::kMedium: return "medium";
    case win::Accuracy::kLow: return "low";
  }
  throw Error("accuracy_name: bad accuracy enum");
}

win::Accuracy accuracy_from_name(const std::string& name) {
  if (name == "full") return win::Accuracy::kFull;
  if (name == "high") return win::Accuracy::kHigh;
  if (name == "medium") return win::Accuracy::kMedium;
  if (name == "low") return win::Accuracy::kLow;
  throw Error("unknown accuracy '" + name + "' (full|high|medium|low)");
}

std::vector<win::Accuracy> tiers_at_or_above(win::Accuracy floor) {
  const win::Accuracy all[] = {win::Accuracy::kFull, win::Accuracy::kHigh,
                               win::Accuracy::kMedium, win::Accuracy::kLow};
  std::vector<win::Accuracy> out;
  for (const auto acc : all) {
    if (win::target_snr_db(acc) >= win::target_snr_db(floor)) out.push_back(acc);
  }
  return out;
}

std::string TuneKey::str() const {
  std::ostringstream os;
  os << "n=" << n << " ranks=" << ranks << " acc=" << accuracy_name(accuracy);
  return os.str();
}

namespace {

/// Split "k=v k=v ..." into pairs; throws on malformed tokens.
std::vector<std::pair<std::string, std::string>> kv_pairs(
    const std::string& text, const char* what) {
  std::istringstream is(text);
  std::vector<std::pair<std::string, std::string>> out;
  std::string tok;
  while (is >> tok) {
    const auto eq = tok.find('=');
    SOI_CHECK(eq != std::string::npos && eq > 0,
              what << ": bad token '" << tok << "' in '" << text << "'");
    out.emplace_back(tok.substr(0, eq), tok.substr(eq + 1));
  }
  return out;
}

}  // namespace

TuneKey parse_tune_key(const std::string& text) {
  TuneKey key;
  bool have_n = false, have_ranks = false, have_acc = false;
  for (const auto& [k, v] : kv_pairs(text, "parse_tune_key")) {
    if (k == "n") {
      key.n = parse_int(v, "parse_tune_key: n");
      have_n = true;
    } else if (k == "ranks") {
      key.ranks = static_cast<int>(parse_int(
          v, "parse_tune_key: ranks", 1, std::numeric_limits<int>::max()));
      have_ranks = true;
    } else if (k == "acc") {
      key.accuracy = accuracy_from_name(v);
      have_acc = true;
    } else {
      throw Error("parse_tune_key: unknown field '" + k + "'");
    }
  }
  SOI_CHECK(have_n && have_ranks && have_acc,
            "parse_tune_key: missing field in '" << text << "'");
  SOI_CHECK(key.n > 0 && key.ranks > 0,
            "parse_tune_key: non-positive n/ranks in '" << text << "'");
  return key;
}

std::string Candidate::describe() const {
  std::ostringstream os;
  os << "tier=" << accuracy_name(accuracy) << " spr=" << segments_per_rank
     << " algo="
     << (alltoall_algo == net::AlltoallAlgo::kPairwise ? "pairwise" : "direct")
     << " overlap=" << (overlap ? 1 : 0) << " bw=" << batch_width
     << " cd=" << chunk_depth;
  // The topo token is emitted only for non-flat schedules, so flat
  // candidates keep the exact pre-v4 text (older readers and tests see
  // unchanged lines). Likewise the v5 transport token appears only when a
  // decision is pinned to a named transport.
  if (!topology.empty() && topology != "flat") os << " topo=" << topology;
  if (!transport.empty()) os << " transport=" << transport;
  // v6 token, emitted only when the exchange is coded — uncoded lines stay
  // byte-identical to v5 output.
  if (!coding.empty()) os << " code=" << coding;
  return os.str();
}

Candidate parse_candidate(const std::string& text) {
  Candidate c;
  bool have_tier = false, have_spr = false, have_algo = false,
       have_overlap = false;
  for (const auto& [k, v] : kv_pairs(text, "parse_candidate")) {
    if (k == "tier") {
      c.accuracy = accuracy_from_name(v);
      have_tier = true;
    } else if (k == "spr") {
      c.segments_per_rank = parse_int(v, "parse_candidate: spr");
      have_spr = true;
    } else if (k == "algo") {
      if (v == "pairwise") {
        c.alltoall_algo = net::AlltoallAlgo::kPairwise;
      } else if (v == "direct") {
        c.alltoall_algo = net::AlltoallAlgo::kDirect;
      } else {
        throw Error("parse_candidate: unknown algo '" + v + "'");
      }
      have_algo = true;
    } else if (k == "overlap") {
      SOI_CHECK(v == "0" || v == "1",
                "parse_candidate: overlap must be 0 or 1, got '" << v << "'");
      c.overlap = v == "1";
      have_overlap = true;
    } else if (k == "bw") {
      // Optional (absent in v1 wisdom lines; defaults to 0 = auto).
      c.batch_width = parse_int(v, "parse_candidate: bw");
    } else if (k == "cd") {
      // Optional (absent before v3 wisdom; defaults to 1 = unchunked).
      c.chunk_depth = parse_int(v, "parse_candidate: cd");
    } else if (k == "topo") {
      // Optional (absent before v4 wisdom and for flat candidates).
      // Syntactic validation only — the rank count is not known here; a
      // shape that cannot factor the communicator fails at plan time.
      SOI_CHECK(v == "flat" || v.rfind("two-level", 0) == 0 ||
                    v.rfind("torus", 0) == 0,
                "parse_candidate: unknown topology '" << v << "' in '"
                                                      << text << "'");
      c.topology = v == "flat" ? std::string{} : v;
    } else if (k == "transport") {
      // Optional (absent before v5 wisdom and for unpinned decisions).
      // Name-level validation only: the registry is consulted where the
      // decision is replayed, so wisdom written by a build with extra
      // backends still parses everywhere.
      c.transport = v;
    } else if (k == "engine") {
      // v5/v6 lines may pin the FFT engine. "batch" is the only engine,
      // so that pin reads as unpinned; any other name cannot be replayed.
      if (v != "batch") {
        throw InvalidArgumentError("parse_candidate: unknown FFT engine '" +
                                   v + "' in '" + text +
                                   "' (the only engine is 'batch')");
      }
    } else if (k == "code") {
      // Optional (absent before v6 wisdom and for uncoded candidates).
      net::Coding code;
      SOI_CHECK(net::Coding::parse(v, &code),
                "parse_candidate: bad coding '" << v << "' in '" << text
                                                << "' (want k+r, e.g. 4+1)");
      c.coding = v;
    } else {
      throw Error("parse_candidate: unknown field '" + k + "'");
    }
  }
  SOI_CHECK(have_tier && have_spr && have_algo && have_overlap,
            "parse_candidate: missing field in '" << text << "'");
  SOI_CHECK(c.segments_per_rank >= 1,
            "parse_candidate: bad segments_per_rank in '" << text << "'");
  SOI_CHECK(c.batch_width >= 0,
            "parse_candidate: bad batch_width in '" << text << "'");
  SOI_CHECK(c.chunk_depth >= 1 && c.segments_per_rank % c.chunk_depth == 0,
            "parse_candidate: chunk_depth must divide segments_per_rank in '"
                << text << "'");
  return c;
}

std::vector<Candidate> candidate_space(const TuneKey& key,
                                       std::int64_t max_segments_per_rank) {
  SOI_CHECK(key.n > 0 && key.ranks > 0,
            "candidate_space: need positive n and ranks");
  SOI_CHECK(max_segments_per_rank >= 1,
            "candidate_space: max_segments_per_rank must be >= 1");
  std::vector<Candidate> out;
  // Staged topology schedules worth enumerating on this rank count, flat
  // ("") always first so the default configuration keeps the lead. Shapes
  // are canonicalised (explicit group size / dims) and only emitted when
  // non-degenerate: a two-level split needs a proper divisor strictly
  // between 1 and ranks, a torus at least two dimensions > 1.
  std::vector<std::string> topos{std::string{}};
  if (key.ranks >= 4) {
    const net::Topology tl = net::Topology::two_level(key.ranks);
    if (tl.group_size() > 1 && tl.groups() > 1) topos.push_back(tl.str());
    const net::Topology tr = net::Topology::torus(key.ranks);
    int fat_dims = 0;
    for (const int k : tr.dims()) fat_dims += k > 1 ? 1 : 0;
    if (fat_dims >= 2) topos.push_back(tr.str());
  }
  // Requested tier first so the seed's hard-coded configuration leads the
  // enumeration (the tuner's tie-break is "first wins").
  auto tiers = tiers_at_or_above(key.accuracy);
  std::reverse(tiers.begin(), tiers.end());  // requested tier leads
  for (const auto tier : tiers) {
    // Registry-cached: the design search runs once per tier per process.
    const win::SoiProfile& profile = *PlanRegistry::global().profile(tier);
    for (std::int64_t spr = 1; spr <= max_segments_per_rank; spr *= 2) {
      const std::int64_t p = key.ranks * spr;
      bool feasible = true;
      try {
        const core::SoiGeometry g(key.n, p, profile);
        // One-neighbour halo invariant of the distributed pipeline.
        feasible = g.halo() <= g.m();
      } catch (const Error&) {
        feasible = false;
      }
      if (!feasible) continue;
      for (const auto algo :
           {net::AlltoallAlgo::kPairwise, net::AlltoallAlgo::kDirect}) {
        for (const bool overlap : {false, true}) {
          if (overlap && key.ranks == 1) continue;  // nothing to hide
          // Batch width of the SoA FFT stages: auto (SIMD-derived) first,
          // then one narrow and one wide explicit setting.
          for (const std::int64_t bw : {std::int64_t{0}, std::int64_t{8},
                                        std::int64_t{32}}) {
            // Chunk depth matters only under the pipelined schedule; the
            // in-order executor posts and waits each piece back to back.
            const std::int64_t max_cd =
                overlap ? std::min<std::int64_t>(spr, 4) : 1;
            for (std::int64_t cd = 1; cd <= max_cd; cd *= 2) {
              // Topology variants ride only the pairwise/auto-width axis:
              // the staged schedules are latency plays, and crossing them
              // with every algo x bw combination would inflate the space
              // without adding signal (the exchange volume is identical).
              const bool topo_axis =
                  algo == net::AlltoallAlgo::kPairwise && bw == 0;
              for (const std::string& topo : topos) {
                if (!topo.empty() && !topo_axis) continue;
                // The coded-exchange variant rides the same restricted
                // axis: it trades wire volume for loss absorption, which
                // is orthogonal to algo/bw, and doubling only this axis
                // keeps the space bounded. Uncoded first, so the default
                // still wins exact ties.
                for (const char* code : {"", "4+1"}) {
                  if (*code != '\0' && (!topo_axis || key.ranks < 2)) {
                    continue;
                  }
                  out.push_back(Candidate{tier, spr, algo, overlap, bw, cd,
                                          topo, {}, code});
                }
              }
            }
          }
        }
      }
    }
  }
  SOI_CHECK(!out.empty(),
            "candidate_space: no feasible candidate for " << key.str());
  return out;
}

}  // namespace soi::tune
