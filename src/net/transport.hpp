// Transport ABI: the abstract message-passing surface the SOI pipeline,
// serving layer and baselines are written against. Everything above
// src/net (src/soi, src/serve, src/baseline, src/tune) includes THIS
// header — never a concrete backend header like net/comm.hpp — so the
// same transform code runs over interchangeable fabrics:
//
//   * "sim"  — SimMPI, thread-per-rank in one process with fault
//              injection and wire-latency emulation (net/comm.hpp),
//   * "shm"  — multi-process shared-memory rings, fork + mmap with the
//              same CRC32C/sequence integrity envelope (net/shm.hpp).
//
// Backends register a factory in net::TransportRegistry (net/registry.hpp)
// and advertise what they can do through TransportCaps. Capabilities are
// NOT silently dropped: a backend that cannot honour a NetOptions field
// (say, wire-latency emulation on a real fabric) must report it through
// unsupported_options() so callers can warn instead of measuring nothing.
//
// The surface is exactly what soi::exec and the serving layer use: tagged
// blocking and nonblocking point-to-point, ialltoall(v) on co-scheduling
// channels, the small collective set (barrier/bcast/gather/allgather/
// allreduce), deadline-bounded waits, and the resilience/introspection
// queries (fault stats, traffic log, monotonic bytes-sent counter).
//
// Request handles are type-erased and move-only. Dropping a live request
// has the semantics the SimMPI layer pioneered: an unfinished collective
// is cancelled (its in-flight pieces purged, future arrivals discarded), a
// pending receive forgets its posting, a completed/send request is a
// no-op. Every backend must preserve these drop semantics — the
// conformance suite in tests/test_backends.cpp checks them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "net/fault.hpp"
#include "net/traffic.hpp"

namespace soi::net {

/// Wildcard source for recv_any-style matching.
inline constexpr int kAnySource = -1;

/// ABI-wide ceiling on collective co-scheduling channels
/// (ialltoall/ialltoallv's `channel` parameter). Channels exist for
/// multi-tenant co-scheduling: all ranks must post the collectives of ONE
/// channel in the same program order, but the relative order of postings
/// on DIFFERENT channels is free to differ per rank. Fixed-size tables
/// (the serving layer's slot arrays, the staged-exchange tag space) are
/// dimensioned by this constant; an individual backend may support fewer
/// — query TransportCaps::max_coll_channels for the live limit.
inline constexpr int kMaxChannels = 16;

/// Secondary error delivered to ranks blocked on communication when a peer
/// rank's body already failed: the world is marked aborted and every
/// sleeping wait unwinds with this instead of deadlocking on a message or
/// rendezvous that can never arrive. run_world() resurfaces the peer's
/// primary error; this one is only rethrown when no primary exists.
class WorldAbortedError : public CommTimeoutError {
 public:
  using CommTimeoutError::CommTimeoutError;
};

/// All-to-all algorithm selection (both give identical results; tests
/// assert so — the choice models different message schedules). Backends
/// without TransportCaps::alltoall_algo_choice run their single native
/// schedule for either value.
enum class AlltoallAlgo {
  kPairwise,  ///< P-1 rounds of sendrecv with partner (rank + step) mod P
  kDirect,    ///< post all sends, then drain all receives
};

/// Per-world resilience configuration. Defaults are the legacy semantics:
/// no injected faults, unbounded waits, checksums stamped and verified.
/// Not every backend honours every field — run the options through
/// Transport::unsupported_options() (run_world() does, and logs a warning
/// per ignored field).
struct NetOptions {
  /// Chaos scenario (empty = none). When set and timeout_ms == 0, a
  /// default deadline is applied so injected drops/delays cannot hang.
  /// Requires TransportCaps::fault_injection.
  FaultSpec faults;
  /// Base deadline of one wait attempt in ms; 0 = wait forever.
  double timeout_ms = 0.0;
  /// Bounded-wait attempts (with doubling backoff) before a wait throws
  /// soi::CommTimeoutError; 0 disables recovery entirely (corruption and
  /// timeouts surface as typed errors on first detection).
  int max_retries = 8;
  /// Stamp CRC32C payload checksums on every send. Off only to measure
  /// the stamping cost.
  bool checksums = true;
  /// Emulated per-message wire latency in microseconds (0 = off). A sent
  /// message only becomes matchable this long after the send posts.
  /// Requires TransportCaps::latency_emulation.
  double wire_latency_us = 0.0;
  /// Second, cheaper latency tier for hierarchical fabrics: messages
  /// between ranks of the same node group (rank / topo_group_size) take
  /// this latency instead of wire_latency_us. Only meaningful with
  /// topo_group_size > 0. Requires TransportCaps::latency_emulation.
  double intra_latency_us = 0.0;
  /// Ranks per node group for the intra/inter latency split (0 = no
  /// grouping, every message pays wire_latency_us).
  int topo_group_size = 0;
};

/// What one registered backend can do. Returned both statically from the
/// registry (so callers can validate options before launching a world) and
/// from a live Transport via caps().
struct TransportCaps {
  /// Registered backend name ("sim", "shm").
  const char* name = "?";
  /// Collective channels this backend disambiguates (<= kMaxChannels).
  int max_coll_channels = kMaxChannels;
  /// kDirect runs a genuinely different message schedule from kPairwise
  /// (false: one native schedule serves both values).
  bool alltoall_algo_choice = false;
  /// Payloads carry a CRC32C integrity envelope verified at delivery.
  bool checksums = false;
  /// NetOptions::faults is honoured (deterministic chaos injection).
  bool fault_injection = false;
  /// wire_latency_us / intra_latency_us / topo_group_size are honoured.
  bool latency_emulation = false;
  /// run_world() returns per-message CommEvents (cost-model input).
  bool traffic_events = false;
  /// Ranks are threads of the calling process sharing its address space —
  /// required by in-process hosts like serve::TransformService that hand
  /// pointers across the rank boundary.
  bool threaded_world = false;
  /// Ranks are separate OS processes (address-space isolation; a crashed
  /// rank cannot corrupt its peers).
  bool cross_process = false;
};

/// Backend-owned completion state behind a type-erased Request. Concrete
/// transports subclass this; the destructor runs the backend's
/// cancel-on-drop path for live operations.
class RequestState {
 public:
  virtual ~RequestState() = default;
  /// True once the operation has completed (always true for send
  /// requests — sends are buffered and finish at post time).
  [[nodiscard]] virtual bool done() const = 0;
  /// For completed receives: the matched source rank (useful with
  /// kAnySource). -1 until completion.
  [[nodiscard]] virtual int source() const = 0;
};

/// Handle for an in-flight nonblocking operation. Move-only and passive:
/// no registry, no background progress. Completion is driven by the owning
/// rank's thread through Transport::test/wait/waitall. Constructed
/// inactive (done); obtain live ones from isend/irecv/ialltoall(v).
/// Destroying (or overwriting) a live request runs the backend's
/// cancel-on-drop semantics (see header comment).
class Request {
 public:
  Request() = default;
  explicit Request(std::unique_ptr<RequestState> state)
      : state_(std::move(state)) {}
  Request(Request&&) noexcept = default;
  Request& operator=(Request&&) noexcept = default;
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;
  ~Request() = default;

  /// True once the operation has completed (inactive handles are done).
  [[nodiscard]] bool done() const { return !state_ || state_->done(); }

  /// True if this handle refers to a posted operation (even a finished one).
  [[nodiscard]] bool active() const { return state_ != nullptr; }

  /// Matched source rank of a completed receive; -1 until completion.
  [[nodiscard]] int source() const {
    return state_ ? state_->source() : kAnySource;
  }

  /// Backend access to the concrete state (downcast point). Null for
  /// inactive handles.
  [[nodiscard]] RequestState* state() const { return state_.get(); }

 private:
  std::unique_ptr<RequestState> state_;
};

/// The abstract per-rank communicator. One instance per rank per world;
/// obtained inside a run_world() body (net/registry.hpp). All operations
/// are blocking unless named i*; everything is safe to call only from the
/// owning rank's thread of control.
class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual int rank() const = 0;
  [[nodiscard]] virtual int size() const = 0;
  [[nodiscard]] virtual const TransportCaps& caps() const = 0;

  // -- point to point (byte payloads) --
  virtual void send_bytes(int dst, int tag, const void* data,
                          std::size_t bytes) = 0;
  virtual void recv_bytes(int src, int tag, void* data, std::size_t bytes) = 0;

  // -- typed convenience (complex doubles, the library's working type) --
  void send(int dst, int tag, cspan data) {
    send_bytes(dst, tag, data.data(), data.size() * sizeof(cplx));
  }
  void recv(int src, int tag, mspan data) {
    recv_bytes(src, tag, data.data(), data.size() * sizeof(cplx));
  }

  /// Simultaneous exchange (deadlock-free even for self/neighbour cycles).
  virtual void sendrecv(int dst, cspan send_data, int src, mspan recv_data,
                        int tag) = 0;

  /// Non-blocking receive attempt: if a matching message is already
  /// queued, consume it into `data` and return true; otherwise return
  /// false immediately.
  virtual bool try_recv(int src, int tag, mspan data) = 0;

  // -- nonblocking point to point --

  /// Post a buffered send. Completes immediately (the returned request is
  /// already done); it exists so send/recv pairs read symmetrically and so
  /// waitall can cover both directions.
  virtual Request isend(int dst, int tag, cspan data) = 0;
  virtual Request isend_bytes(int dst, int tag, const void* data,
                              std::size_t bytes) = 0;

  /// Post a receive. No data moves until test()/wait() matches a message;
  /// `data` must stay valid until then.
  virtual Request irecv(int src, int tag, mspan data) = 0;
  virtual Request irecv_bytes(int src, int tag, void* data,
                              std::size_t bytes) = 0;

  // -- nonblocking collectives --

  /// Nonblocking alltoall. All ranks must post the nonblocking collectives
  /// of one `channel` in the same program order (a per-rank, per-channel
  /// sequence number disambiguates concurrent in-flight collectives);
  /// postings on different channels may interleave differently per rank.
  /// `channel` must be < caps().max_coll_channels.
  virtual Request ialltoall(cspan send_data, mspan recv_data,
                            std::int64_t count,
                            AlltoallAlgo algo = AlltoallAlgo::kPairwise,
                            int channel = 0) = 0;

  /// Nonblocking alltoallv. `recv_counts`/`recv_displs` are captured by
  /// pointer and must outlive the request. Same per-channel ordering
  /// contract as ialltoall.
  virtual Request ialltoallv(cspan send_data,
                             std::span<const std::int64_t> send_counts,
                             std::span<const std::int64_t> send_displs,
                             mspan recv_data,
                             std::span<const std::int64_t> recv_counts,
                             std::span<const std::int64_t> recv_displs,
                             int channel = 0) = 0;

  /// One progress attempt on the calling rank's mailbox; true when the
  /// request has completed. Never blocks.
  virtual bool test(Request& req) = 0;

  /// Block until the request completes. Under the world's resilience
  /// configuration (timeout_ms() > 0) this is a bounded wait that throws
  /// soi::CommTimeoutError after max_retries() expired deadlines.
  virtual void wait(Request& req) = 0;

  /// One deadline-bounded completion attempt: progress, sleep until the
  /// deadline, run the backend's recovery at expiry, and report whether
  /// the request finished. timeout_ms <= 0 blocks until completion.
  /// Throws soi::PayloadCorruptionError when a payload fails verification
  /// and recovery is disabled or impossible; never throws on timeout
  /// (callers own the retry policy).
  virtual bool wait_for(Request& req, double timeout_ms) = 0;

  /// wait() over a span, in order.
  virtual void waitall(std::span<Request> reqs) {
    for (auto& r : reqs) wait(r);
  }

  // -- collectives --
  virtual void barrier() = 0;
  virtual void bcast(mspan data, int root) = 0;
  /// Root gathers size-per-rank blocks in rank order.
  virtual void gather(cspan send_data, mspan recv_data, int root) = 0;
  virtual void allgather(cspan send_data, mspan recv_data) = 0;
  virtual double allreduce_sum(double value) = 0;
  virtual double allreduce_max(double value) = 0;
  /// Element-wise sum over all ranks, in place — one rendezvous for the
  /// whole vector. Every backend must hand BIT-IDENTICAL result vectors to
  /// every rank (a single accumulation broadcast to all, or a rank-ordered
  /// reduction — never an order-varying tree per rank), so collective
  /// guards above the ABI stay consistent across the world.
  virtual void allreduce_sum(std::span<double> values) = 0;

  /// Exchange `count` complex values with every rank: block d of
  /// `send_data` goes to rank d; block s of `recv_data` arrives from rank
  /// s. This is the single global transpose of the SOI algorithm.
  virtual void alltoall(cspan send_data, mspan recv_data, std::int64_t count,
                        AlltoallAlgo algo = AlltoallAlgo::kPairwise) = 0;

  /// Variable-size all-to-all: counts/displacements per destination/source,
  /// in complex elements.
  virtual void alltoallv(cspan send_data,
                         std::span<const std::int64_t> send_counts,
                         std::span<const std::int64_t> send_displs,
                         mspan recv_data,
                         std::span<const std::int64_t> recv_counts,
                         std::span<const std::int64_t> recv_displs) = 0;

  // -- resilience & introspection --

  /// Install the world's resilience configuration (fault injector,
  /// deadlines, retry budget). First caller wins; later calls are no-ops,
  /// so every rank may call it with the same options. Worlds from
  /// run_world(n, opts, body) are pre-configured.
  virtual void configure_resilience(const NetOptions& opts) = 0;

  /// True when this world can experience or recover from faults: a fault
  /// injector is installed or a wait deadline is configured. World-global
  /// (every rank sees the same answer), so callers may condition
  /// collective call patterns on it.
  [[nodiscard]] virtual bool resilience_active() const = 0;

  /// Base deadline of one wait attempt in ms (0 = unbounded waits).
  [[nodiscard]] virtual double timeout_ms() const = 0;
  /// Bounded-wait retry budget (0 = recovery disabled).
  [[nodiscard]] virtual int max_retries() const = 0;
  /// Snapshot of the world-wide fault/recovery counters.
  [[nodiscard]] virtual FaultStats fault_stats() const = 0;

  /// Shared traffic recorder for the whole world (same object on all
  /// ranks; empty and inert on backends without caps().traffic_events).
  [[nodiscard]] virtual TrafficLog& traffic() = 0;

  /// Monotonic payload bytes THIS rank has sent (p2p and collectives;
  /// own-block copies inside collectives are not sends). Pipeline stages
  /// read the delta around a communication call to trace measured
  /// per-stage byte volumes.
  [[nodiscard]] virtual std::int64_t bytes_sent() const = 0;

  /// Human-readable warnings, one per NetOptions field this backend cannot
  /// honour (capability mismatches are reported, never silently ignored).
  /// Empty when every requested option is supported. The default derives
  /// the answer from caps() via unsupported_option_warnings().
  [[nodiscard]] virtual std::vector<std::string> unsupported_options(
      const NetOptions& opts) const;
};

/// Caps-driven capability check shared by every backend (and usable
/// statically, before a world exists, from the registry's caps table):
/// one warning string per NetOptions field `caps` cannot honour.
std::vector<std::string> unsupported_option_warnings(const TransportCaps& caps,
                                                     const NetOptions& opts);

}  // namespace soi::net
