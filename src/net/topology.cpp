#include "net/topology.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "net/transport.hpp"

namespace soi::net {

namespace {

/// Divisor of n nearest to `target` (ties toward the larger divisor),
/// restricted to proper divisors when possible.
int nearest_divisor(int n, double target) {
  int best = 1;
  double best_d = std::abs(1.0 - target);
  for (int d = 2; d <= n; ++d) {
    if (n % d != 0) continue;
    if (d == n && best > 1) continue;  // prefer a proper divisor
    const double dist = std::abs(static_cast<double>(d) - target);
    if (dist < best_d || (dist == best_d && d > best)) {
      best = d;
      best_d = dist;
    }
  }
  return best;
}

/// One numeric field of a topology spec: an integer in [0, ranks] (0 =
/// derive it), so dimension products cannot overflow.
int spec_field(const std::string& field, const std::string& text, int ranks) {
  return static_cast<int>(parse_int(field, "topology '" + text + "'", 0,
                                    std::max(ranks, 0)));
}

}  // namespace

Topology Topology::flat(int ranks) {
  SOI_CHECK(ranks >= 1, "topology: ranks must be >= 1, got " << ranks);
  Topology t;
  t.kind_ = TopologyKind::kFlat;
  t.ranks_ = ranks;
  t.group_size_ = ranks;
  t.dims_ = {ranks, 1, 1};
  return t;
}

Topology Topology::two_level(int ranks, int group_size) {
  SOI_CHECK(ranks >= 1, "topology: ranks must be >= 1, got " << ranks);
  if (group_size == 0) {
    group_size = nearest_divisor(ranks, std::sqrt(static_cast<double>(ranks)));
  }
  SOI_CHECK(group_size >= 1 && ranks % group_size == 0,
            "two-level topology: group size " << group_size
                                              << " must divide ranks "
                                              << ranks);
  Topology t;
  t.kind_ = TopologyKind::kTwoLevel;
  t.ranks_ = ranks;
  t.group_size_ = group_size;
  t.dims_ = {ranks, 1, 1};
  return t;
}

Topology Topology::torus(int ranks, int k0, int k1, int k2) {
  SOI_CHECK(ranks >= 1, "topology: ranks must be >= 1, got " << ranks);
  if (k0 == 0 && k1 == 0 && k2 == 0) {
    // Near-cube factorization, k0 >= k1 >= k2.
    k2 = nearest_divisor(ranks, std::cbrt(static_cast<double>(ranks)));
    const int rem = ranks / k2;
    k1 = nearest_divisor(rem, std::sqrt(static_cast<double>(rem)));
    k0 = rem / k1;
    if (k1 < k2) std::swap(k1, k2);
    if (k0 < k1) std::swap(k0, k1);
  }
  SOI_CHECK(k0 >= 1 && k1 >= 1 && k2 >= 1 && k0 * k1 * k2 == ranks,
            "torus topology: dims " << k0 << "x" << k1 << "x" << k2
                                    << " do not factor ranks " << ranks);
  Topology t;
  t.kind_ = TopologyKind::kTorus;
  t.ranks_ = ranks;
  t.group_size_ = ranks;
  t.dims_ = {k0, k1, k2};
  for (int d = 0; d < 3; ++d) {
    if (t.dims_[static_cast<std::size_t>(d)] > 1) t.phase_dims_.push_back(d);
  }
  return t;
}

Topology Topology::parse(const std::string& text, int ranks) {
  if (text.empty() || text == "flat") return flat(ranks);
  const auto colon = text.find(':');
  const std::string head = text.substr(0, colon);
  const std::string arg =
      colon == std::string::npos ? std::string() : text.substr(colon + 1);
  if (head == "two-level") {
    return two_level(ranks, arg.empty() ? 0 : spec_field(arg, text, ranks));
  }
  if (head == "torus") {
    int k[3] = {0, 0, 0};
    if (!arg.empty()) {
      const auto x1 = arg.find('x');
      const auto x2 = x1 == std::string::npos ? x1 : arg.find('x', x1 + 1);
      SOI_CHECK(x2 != std::string::npos,
                "topology: bad torus dims '" << arg << "' in '" << text
                                             << "' (want k0xk1xk2)");
      k[0] = spec_field(arg.substr(0, x1), text, ranks);
      k[1] = spec_field(arg.substr(x1 + 1, x2 - x1 - 1), text, ranks);
      k[2] = spec_field(arg.substr(x2 + 1), text, ranks);
    }
    return torus(ranks, k[0], k[1], k[2]);
  }
  throw Error("topology: unknown spec '" + text +
              "' (want flat | two-level[:G] | torus[:k0xk1xk2])");
}

std::string Topology::str() const {
  switch (kind_) {
    case TopologyKind::kFlat:
      return "flat";
    case TopologyKind::kTwoLevel:
      return "two-level:" + std::to_string(group_size_);
    case TopologyKind::kTorus: {
      std::string s = "torus:";
      s += std::to_string(dims_[0]);
      s += 'x';
      s += std::to_string(dims_[1]);
      s += 'x';
      s += std::to_string(dims_[2]);
      return s;
    }
  }
  return "flat";
}

std::array<int, 3> Topology::coords(int rank) const {
  return {rank % dims_[0], (rank / dims_[0]) % dims_[1],
          rank / (dims_[0] * dims_[1])};
}

int Topology::rank_of(const std::array<int, 3>& c) const {
  return c[0] + dims_[0] * (c[1] + dims_[1] * c[2]);
}

int Topology::phases() const {
  switch (kind_) {
    case TopologyKind::kFlat:
      return 1;
    case TopologyKind::kTwoLevel:
      return 2;
    case TopologyKind::kTorus:
      return phase_dims_.empty() ? 1
                                 : static_cast<int>(phase_dims_.size());
  }
  return 1;
}

int Topology::route(int phase, int holder, int dst) const {
  switch (kind_) {
    case TopologyKind::kFlat:
      return dst;
    case TopologyKind::kTwoLevel:
      if (phase == 0) {
        return group_of(holder) * group_size_ + local_of(dst);
      }
      return dst;
    case TopologyKind::kTorus: {
      if (phase_dims_.empty()) return dst;
      const int d = phase_dims_[static_cast<std::size_t>(phase)];
      auto c = coords(holder);
      c[static_cast<std::size_t>(d)] =
          coords(dst)[static_cast<std::size_t>(d)];
      return rank_of(c);
    }
  }
  return dst;
}

StagedPlan build_staged_plan(const Topology& topo, int my_rank) {
  const int R = topo.ranks();
  SOI_CHECK(R >= 1 && my_rank >= 0 && my_rank < R,
            "staged plan: rank " << my_rank << " outside world of " << R);
  struct Block {
    int src;
    int dst;
  };
  // Simulate every rank's holdings so sender pack order and receiver slot
  // assignment agree globally. R is thread-count scale, so O(R^2) state
  // and O(phases * R^2) time are negligible next to one exchange.
  std::vector<std::vector<Block>> hold(static_cast<std::size_t>(R));
  for (int r = 0; r < R; ++r) {
    hold[static_cast<std::size_t>(r)].reserve(static_cast<std::size_t>(R));
    for (int d = 0; d < R; ++d) {
      hold[static_cast<std::size_t>(r)].push_back({r, d});
    }
  }
  StagedPlan plan;
  plan.ranks = R;
  const int half = R / 2;
  for (int ph = 0; ph < topo.phases(); ++ph) {
    // out[r][k-1]: holdings slots rank r sends to peer (r+k) % R.
    std::vector<std::vector<std::vector<int>>> out(
        static_cast<std::size_t>(R),
        std::vector<std::vector<int>>(static_cast<std::size_t>(R - 1)));
    std::vector<std::vector<int>> kept(static_cast<std::size_t>(R));
    bool any = false;
    for (int r = 0; r < R; ++r) {
      const auto& h = hold[static_cast<std::size_t>(r)];
      for (int i = 0; i < static_cast<int>(h.size()); ++i) {
        const int t = topo.route(ph, r, h[static_cast<std::size_t>(i)].dst);
        if (t == r) {
          kept[static_cast<std::size_t>(r)].push_back(i);
        } else {
          const int k = (t - r + R) % R;
          out[static_cast<std::size_t>(r)][static_cast<std::size_t>(k - 1)]
              .push_back(i);
          any = true;
        }
      }
    }
    if (!any) continue;  // phase moves nothing anywhere: drop it
    // New holdings: kept blocks first (in prior order), then received
    // blocks peer by peer in the receiver's ring order, each message in
    // the sender's pack order.
    std::vector<std::vector<Block>> next(static_cast<std::size_t>(R));
    for (int r = 0; r < R; ++r) {
      auto& nh = next[static_cast<std::size_t>(r)];
      nh.reserve(static_cast<std::size_t>(R));
      for (const int i : kept[static_cast<std::size_t>(r)]) {
        nh.push_back(hold[static_cast<std::size_t>(r)]
                         [static_cast<std::size_t>(i)]);
      }
      for (int k = 1; k < R; ++k) {
        const int p = (r + k) % R;
        const int back = (r - p + R) % R;
        for (const int slot :
             out[static_cast<std::size_t>(p)]
                [static_cast<std::size_t>(back - 1)]) {
          nh.push_back(hold[static_cast<std::size_t>(p)]
                           [static_cast<std::size_t>(slot)]);
        }
      }
      SOI_CHECK(static_cast<int>(nh.size()) == R,
                "staged plan: rank " << r << " holds " << nh.size()
                                     << " blocks after phase " << ph
                                     << " (want " << R << ")");
    }
    // Traffic statistics over all ranks.
    for (int r = 0; r < R; ++r) {
      for (int k = 1; k < R; ++k) {
        const auto& blocks =
            out[static_cast<std::size_t>(r)][static_cast<std::size_t>(k - 1)];
        if (blocks.empty()) continue;
        const int peer = (r + k) % R;
        plan.total_messages += 1;
        plan.total_blocks_sent += static_cast<std::int64_t>(blocks.size());
        if ((r < half) != (peer < half)) {
          plan.bisection_blocks += static_cast<std::int64_t>(blocks.size());
        }
      }
    }
    // This rank's schedule for the phase.
    StagedPlan::Phase phase;
    int nsend = 0;
    for (int k = 1; k < R; ++k) {
      const int peer = (my_rank + k) % R;
      const auto& blocks = out[static_cast<std::size_t>(my_rank)]
                              [static_cast<std::size_t>(k - 1)];
      if (blocks.empty()) continue;
      phase.sends.push_back({peer, blocks});
      ++nsend;
    }
    int nrecv = 0;
    int slot = static_cast<int>(kept[static_cast<std::size_t>(my_rank)]
                                    .size());
    for (int k = 1; k < R; ++k) {
      const int p = (my_rank + k) % R;
      const int back = (my_rank - p + R) % R;
      const auto& blocks = out[static_cast<std::size_t>(p)]
                              [static_cast<std::size_t>(back - 1)];
      if (blocks.empty()) continue;
      phase.recvs.push_back({p, static_cast<int>(blocks.size()), slot});
      slot += static_cast<int>(blocks.size());
      ++nrecv;
    }
    const auto& mine = kept[static_cast<std::size_t>(my_rank)];
    for (int i = 0; i < static_cast<int>(mine.size()); ++i) {
      phase.keeps.push_back({mine[static_cast<std::size_t>(i)], i});
    }
    plan.max_peers = std::max({plan.max_peers, nsend, nrecv});
    plan.phases.push_back(std::move(phase));
    hold = std::move(next);
  }
  plan.final_src.resize(static_cast<std::size_t>(R));
  for (int i = 0; i < R; ++i) {
    const Block& b =
        hold[static_cast<std::size_t>(my_rank)][static_cast<std::size_t>(i)];
    SOI_CHECK(b.dst == my_rank, "staged plan: block ("
                                    << b.src << "->" << b.dst
                                    << ") stranded at rank " << my_rank);
    plan.final_src[static_cast<std::size_t>(i)] = b.src;
  }
  return plan;
}

std::int64_t flat_bisection_blocks(int ranks) {
  const std::int64_t lo = ranks / 2;
  const std::int64_t hi = ranks - lo;
  return 2 * lo * hi;
}

void staged_alltoall(Transport& comm, const StagedPlan& plan, const void* send,
                     void* recv, std::int64_t block_bytes, void* scratch,
                     int tag_base) {
  const int R = plan.ranks;
  SOI_CHECK(comm.size() == R, "staged_alltoall: plan built for "
                                  << R << " ranks, comm has " << comm.size());
  const auto bb = static_cast<std::size_t>(block_bytes);
  if (bb == 0) return;
  auto* base = static_cast<unsigned char*>(scratch);
  unsigned char* pack = base;
  unsigned char* ping = base + static_cast<std::size_t>(R) * bb;
  unsigned char* pong = base + 2 * static_cast<std::size_t>(R) * bb;
  const auto* prev = static_cast<const unsigned char*>(send);
  unsigned char* cur = ping;
  std::vector<Request> reqs;
  reqs.reserve(static_cast<std::size_t>(plan.max_peers));
  for (std::size_t ph = 0; ph < plan.phases.size(); ++ph) {
    const auto& phase = plan.phases[ph];
    const int tag = tag_base + static_cast<int>(ph);
    reqs.clear();
    for (const auto& rv : phase.recvs) {
      reqs.push_back(comm.irecv_bytes(
          rv.peer, tag, cur + static_cast<std::size_t>(rv.first_slot) * bb,
          static_cast<std::size_t>(rv.nblocks) * bb));
    }
    std::size_t off = 0;
    for (const auto& sd : phase.sends) {
      unsigned char* msg = pack + off;
      for (const int slot : sd.gather) {
        std::memcpy(pack + off, prev + static_cast<std::size_t>(slot) * bb,
                    bb);
        off += bb;
      }
      // Sends are buffered: the request completes at post time and the
      // pack region is free for reuse immediately.
      comm.isend_bytes(sd.peer, tag, msg, sd.gather.size() * bb);
    }
    for (const auto& kp : phase.keeps) {
      std::memcpy(cur + static_cast<std::size_t>(kp.to) * bb,
                  prev + static_cast<std::size_t>(kp.from) * bb, bb);
    }
    comm.waitall(reqs);
    prev = cur;
    cur = (cur == ping) ? pong : ping;
  }
  auto* out = static_cast<unsigned char*>(recv);
  for (int s = 0; s < R; ++s) {
    std::memcpy(out + static_cast<std::size_t>(
                          plan.final_src[static_cast<std::size_t>(s)]) *
                          bb,
                prev + static_cast<std::size_t>(s) * bb, bb);
  }
}

}  // namespace soi::net
