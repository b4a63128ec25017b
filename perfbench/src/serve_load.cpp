// serve_mixed and serve_uniform: traffic through serve::TransformService
// hosted on a 4-rank sim team with 150 us emulated wire latency.
//
// serve_mixed is an open loop: one generator thread sends on a seeded
// Poisson schedule at a fixed rate, and latency is timed from each
// request's scheduled send time, so a stall also charges the requests
// queued behind it. One waiter thread per tier claims completions: wait()
// is the service's only completion signal, and a single waiter in
// submission order would charge interactive requests for earlier batch
// ones. serve_uniform is a closed loop: one thread keeps 8 requests
// (2 x max_concurrency) outstanding on one lane, so the service runs
// saturated through its same-lane batch path.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "fft/plan.hpp"
#include "serve/service.hpp"
#include "tune/registry.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// serve_mixed's offered rate in requests/s, fixed so that a faster or
/// slower build is measured at the same load: about 15% of the service's
/// mixed-traffic capacity on a 4-core host (about 3300/s). At 1000/s and
/// 1500/s some runs on a shared host fell into a backlog that lasted the
/// whole run, so latency could not be compared between runs.
constexpr double kMixedRatePerSec = 500.0;
constexpr double kInteractiveShare = 0.7;
/// Per-tier latency limits of the SLO (index = serve::Priority).
constexpr double kLimitMs[2] = {10.0, 50.0};
constexpr int kUniformOutstanding = 8;
constexpr int kInputsPerLane = 16;
constexpr int kBuffersPerLane = 160;
/// Setups timed per run (a serve setup takes well under a second, so the
/// median needs several to settle).
constexpr int kSetupSamples = 9;
/// The load is cut into this many equal windows of scheduled send time.
/// Latency quantiles and throughput are computed per window and the
/// median over windows is reported: on a shared host a burst of
/// interference then moves a few windows, not the run's figure. At the
/// run lengths used (about 2 s per window) each window still holds at
/// least ten requests beyond its p99.
constexpr int kWindows = 16;

enum class Outcome : std::uint8_t { kPending, kOk, kRejected, kShed, kFailed };

struct Request {
  double due = 0.0;        ///< scheduled send time
  double submit_s = 0.0;   ///< duration of the try_submit call
  double sent = 0.0;       ///< when try_submit was entered
  double done = 0.0;       ///< when wait() returned
  std::int32_t lane = 0;   ///< index into Lanes (0 small, 1 large)
  std::int32_t tier = 0;   ///< 0 interactive, 1 batch
  std::int32_t input = 0;
  std::int32_t buffer = -1;
  std::int64_t span = -1;  ///< the request's root span (traced phase)
  soi::serve::Ticket ticket;
  Outcome outcome = Outcome::kPending;
  bool verified = false;    ///< output bit-identical to the solo run
  double mismatch_snr = 0;  ///< SNR of an output that is not
};

/// One lane's inputs, solo reference outputs and output buffer pool.
struct LaneData {
  std::int64_t n = 0;
  int id = -1;
  std::vector<soi::cvec> inputs;
  std::vector<soi::cvec> solo;
  std::vector<soi::cvec> buffers;
  std::mutex mu;
  std::vector<int> free;  // guarded by mu

  int take() {
    std::lock_guard<std::mutex> lk(mu);
    SOI_CHECK(!free.empty(), "perfbench: output buffer pool exhausted");
    const int b = free.back();
    free.pop_back();
    return b;
  }
  void give(int b) {
    std::lock_guard<std::mutex> lk(mu);
    free.push_back(b);
  }
};

/// FIFO of request indices from the generator to one tier's waiter.
class TierQueue {
 public:
  explicit TierQueue(std::size_t cap) : ring_(cap) {}
  void push(std::int64_t idx) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ring_[static_cast<std::size_t>(tail_ % ring_.size())] = idx;
      ++tail_;
    }
    cv_.notify_one();
  }
  void close() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      closed_ = true;
    }
    cv_.notify_one();
  }
  /// Next index, or -1 once closed and drained.
  std::int64_t pop() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return head_ < tail_ || closed_; });
    if (head_ == tail_) return -1;
    return ring_[static_cast<std::size_t>(head_++ % ring_.size())];
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::int64_t> ring_;  // guarded by mu_
  std::int64_t head_ = 0;
  std::int64_t tail_ = 0;
  bool closed_ = false;
};

struct Phase {
  std::vector<Request> reqs;
  double start = 0.0;
  double seconds = 0.0;
};

/// Per-window p50 / p90 / p99 latency (ms) and verified completions per
/// second of one phase, each as the median over windows.
struct WindowStats {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double tps = 0.0;
  std::int64_t samples = 0;
};

WindowStats windowed(const Phase& ph) {
  std::vector<std::vector<double>> lat(kWindows);
  const double width = ph.seconds / kWindows;
  WindowStats w;
  for (const auto& r : ph.reqs) {
    if (r.outcome != Outcome::kOk || !r.verified) continue;
    const int k = std::clamp(static_cast<int>((r.due - ph.start) / width), 0,
                             kWindows - 1);
    lat[static_cast<std::size_t>(k)].push_back((r.done - r.due) * 1e3);
    ++w.samples;
  }
  std::vector<double> p50, p90, p99, tps;
  for (const auto& v : lat) {
    p50.push_back(quantile(v, 0.5));
    p90.push_back(quantile(v, 0.9));
    p99.push_back(quantile(v, 0.99));
    tps.push_back(static_cast<double>(v.size()) / width);
  }
  w.p50_ms = quantile(p50, 0.5);
  w.p90_ms = quantile(p90, 0.5);
  w.p99_ms = quantile(p99, 0.5);
  w.tps = quantile(tps, 0.5);
  return w;
}

struct ServeSetup {
  std::unique_ptr<soi::serve::TransformService> svc;
  double total_s = 0.0;
  double create_lane_s = 0.0;
  double warmup_s = 0.0;
};

ServeSetup set_up_service(const std::vector<LaneData*>& lanes) {
  ServeSetup s;
  soi::tune::PlanRegistry::global().clear();  // design and build from scratch
  const double t0 = now_s();
  soi::serve::ServeOptions so;
  so.ranks = kServeRanks;
  so.transport = "sim";
  so.wire_latency_us = kWireLatencyUs;
  s.svc = std::make_unique<soi::serve::TransformService>(so);
  const double t1 = now_s();
  for (auto* lane : lanes) {
    soi::serve::LaneSpec spec;
    spec.n = lane->n;
    spec.accuracy = soi::win::Accuracy::kHigh;
    spec.segments_per_rank = kLaneSegmentsPerRank;
    lane->id = s.svc->create_lane(spec);
  }
  const double t2 = now_s();
  s.svc->warmup();
  const double t3 = now_s();
  s.total_s = t3 - t0;
  s.create_lane_s = t2 - t1;
  s.warmup_s = t3 - t2;
  return s;
}

/// Check a finished request's output bit for bit against its solo run. A
/// mismatch also records the output's own SNR against the exact FFT (a
/// matching output has its solo run's SNR).
void verify(const LaneData& lane, Request& r) {
  const auto& got = lane.buffers[static_cast<std::size_t>(r.buffer)];
  const auto& want = lane.solo[static_cast<std::size_t>(r.input)];
  r.verified =
      std::memcmp(got.data(), want.data(), want.size() * sizeof(soi::cplx)) == 0;
  if (!r.verified) {
    soi::cvec ref(want.size());
    soi::fft::FftPlan(lane.n).forward(
        lane.inputs[static_cast<std::size_t>(r.input)], ref);
    r.mismatch_snr = soi::snr_db(got, ref);
  }
}

}  // namespace

void run_serve(const Args& args, bool mixed, Report& report, Tracer& tracer) {
  const double floor_db = snr_floor_db(soi::win::Accuracy::kHigh);
  soi::Rng rng(args.seed * 7919 + (mixed ? 1 : 2));

  // Lanes: serve_mixed uses both, serve_uniform only the large one.
  LaneData small;
  LaneData large;
  small.n = kLaneSmallN;
  large.n = kLaneLargeN;
  std::vector<LaneData*> lanes = mixed ? std::vector<LaneData*>{&small, &large}
                                       : std::vector<LaneData*>{&large};
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    auto& ld = *lanes[l];
    for (int i = 0; i < kInputsPerLane; ++i) {
      ld.inputs.push_back(make_signal(ld.n, args.seed, 1000 * (l + 1) + i));
    }
    for (int b = 0; b < kBuffersPerLane; ++b) {
      ld.buffers.emplace_back(static_cast<std::size_t>(ld.n));
      ld.free.push_back(kBuffersPerLane - 1 - b);
    }
  }

  // Setup, timed kSetupSamples times from an empty plan registry; the
  // last service built carries the load.
  std::vector<double> setups;
  std::vector<double> create_lane;
  std::vector<double> warmups;
  ServeSetup built;
  for (int s = 0; s < kSetupSamples; ++s) {
    built.svc.reset();
    built = set_up_service(lanes);
    setups.push_back(built.total_s);
    create_lane.push_back(built.create_lane_s);
    warmups.push_back(built.warmup_s);
  }
  auto& svc = *built.svc;

  // Solo reference runs (one request alone in the service) and their SNR
  // against the exact FFT of the same input.
  double snr_min = 1e9;
  std::int64_t bad_solo = 0;
  for (auto* lane : lanes) {
    soi::fft::FftPlan exact(lane->n);
    soi::cvec ref(static_cast<std::size_t>(lane->n));
    for (const auto& x : lane->inputs) {
      soi::cvec y(static_cast<std::size_t>(lane->n));
      svc.wait(svc.submit(lane->id, 0, x, y));
      exact.forward(x, ref);
      const double snr = soi::snr_db(y, ref);
      snr_min = std::min(snr_min, snr);
      if (!(snr >= floor_db)) ++bad_solo;
      lane->solo.push_back(std::move(y));
    }
  }
  report.count(static_cast<std::int64_t>(lanes.size()) * kInputsPerLane,
               bad_solo);

  // The request trace: arrival times, lane/tier and input per request.
  const double rate = mixed ? kMixedRatePerSec : 0.0;
  auto make_request = [&](double due) {
    Request r;
    r.due = due;
    const bool interactive = mixed && rng.uniform() < kInteractiveShare;
    r.lane = interactive ? 0 : static_cast<std::int32_t>(lanes.size() - 1);
    r.tier = interactive ? 0 : 1;
    r.input = static_cast<std::int32_t>(rng.uniform_index(kInputsPerLane));
    return r;
  };

  auto submit = [&](Request& r, std::int64_t idx) {
    auto& lane = *lanes[static_cast<std::size_t>(r.lane)];
    r.buffer = lane.take();
    soi::serve::SubmitOptions so;
    so.priority = static_cast<soi::serve::Priority>(r.tier);
    r.span = tracer.begin_at("request", r.due, -1, idx);
    const std::int64_t sp = tracer.begin_at("serve.try_submit", now_s(), r.span, idx);
    r.sent = now_s();
    const auto t = svc.try_submit(lane.id, r.tier, lane.inputs[static_cast<std::size_t>(r.input)],
                                  lane.buffers[static_cast<std::size_t>(r.buffer)], so);
    r.submit_s = now_s() - r.sent;
    tracer.end(sp);
    if (t) {
      r.ticket = *t;
      return true;
    }
    r.outcome = Outcome::kRejected;
    r.done = now_s();
    tracer.end(r.span);
    lane.give(r.buffer);
    return false;
  };

  auto complete = [&](Request& r, std::int64_t idx) {
    auto& lane = *lanes[static_cast<std::size_t>(r.lane)];
    const std::int64_t sp = tracer.begin_at("serve.wait", now_s(), r.span, idx);
    try {
      svc.wait(r.ticket);
      r.outcome = Outcome::kOk;
    } catch (const soi::DeadlineExceededError&) {
      r.outcome = Outcome::kShed;
    } catch (const soi::Error&) {
      r.outcome = Outcome::kFailed;
    }
    r.done = now_s();
    tracer.end(sp);
    if (r.outcome == Outcome::kOk) {
      const std::int64_t cs = tracer.begin_at("check", now_s(), r.span, idx);
      verify(lane, r);
      tracer.end(cs);
    }
    tracer.end(r.span);
    lane.give(r.buffer);
  };

  auto run_phase = [&](double seconds, Phase& ph) {
    ph.reqs.clear();
    const double start = now_s() + 0.01;
    ph.start = start;
    ph.seconds = seconds;
    if (mixed) {
      // Pre-draw the whole schedule so the generator only sleeps and sends.
      double at = 0.0;
      for (;;) {
        at += -std::log(1.0 - rng.uniform()) / rate;
        if (at >= seconds) break;
        ph.reqs.push_back(make_request(start + at));
      }
      std::vector<std::unique_ptr<TierQueue>> queues;
      for (int t = 0; t < 2; ++t) {
        queues.push_back(std::make_unique<TierQueue>(ph.reqs.size() + 1));
      }
      std::vector<std::thread> waiters;
      for (int t = 0; t < 2; ++t) {
        waiters.emplace_back([&, t] {
          for (std::int64_t idx; (idx = queues[static_cast<std::size_t>(t)]->pop()) >= 0;) {
            complete(ph.reqs[static_cast<std::size_t>(idx)], idx);
          }
        });
      }
      std::thread generator([&] {
        for (std::size_t i = 0; i < ph.reqs.size(); ++i) {
          auto& r = ph.reqs[i];
          std::this_thread::sleep_until(
              std::chrono::steady_clock::time_point(
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(r.due))));
          if (submit(r, static_cast<std::int64_t>(i))) {
            queues[static_cast<std::size_t>(r.tier)]->push(static_cast<std::int64_t>(i));
          }
        }
        for (auto& q : queues) q->close();
      });
      generator.join();
      for (auto& w : waiters) w.join();
    } else {
      // Closed loop: the requests are created as earlier ones complete.
      ph.reqs.reserve(static_cast<std::size_t>(seconds * 20000) + 64);
      std::int64_t oldest = 0;
      auto send_next = [&] {
        ph.reqs.push_back(make_request(now_s()));
        const auto idx = static_cast<std::int64_t>(ph.reqs.size() - 1);
        submit(ph.reqs.back(), idx);
      };
      while (now_s() < start) {
      }
      for (int k = 0; k < kUniformOutstanding; ++k) send_next();
      while (oldest < static_cast<std::int64_t>(ph.reqs.size())) {
        auto& r = ph.reqs[static_cast<std::size_t>(oldest)];
        if (r.outcome == Outcome::kPending) complete(r, oldest);
        ++oldest;
        if (now_s() - start < seconds &&
            ph.reqs.size() < ph.reqs.capacity()) {
          send_next();
        }
      }
    }
  };

  svc.reset_metrics();
  const std::int64_t allocs0 = soi::alloc_stats().count;
  Phase main;
  run_phase(args.trace ? args.seconds / 2 : args.seconds, main);
  const std::int64_t allocs = soi::alloc_stats().count - allocs0;
  const auto snap = svc.metrics();

  // Failed operations: execution errors and outputs that differ from
  // their solo run (whose SNR then also enters snr_db_min).
  auto count_bad = [&](const Phase& ph) {
    std::int64_t bad = 0;
    for (const auto& r : ph.reqs) {
      if (r.outcome == Outcome::kOk && !r.verified) {
        snr_min = std::min(snr_min, r.mismatch_snr);
        ++bad;
      }
      if (r.outcome == Outcome::kFailed) ++bad;
    }
    report.count(static_cast<std::int64_t>(ph.reqs.size()), bad);
  };
  count_bad(main);
  const WindowStats ws = windowed(main);
  std::int64_t sent = 0, ok = 0, met = 0;
  std::vector<double> submit_us;
  std::vector<double> lag_ms;
  for (const auto& r : main.reqs) {
    ++sent;
    submit_us.push_back(r.submit_s * 1e6);
    lag_ms.push_back((r.sent - r.due) * 1e3);
    if (r.outcome != Outcome::kOk || !r.verified) continue;
    ++ok;
    if ((r.done - r.due) * 1e3 <= kLimitMs[r.tier]) ++met;
  }
  report.add("setup_s", quantile(setups, 0.5), "s", kSetupSamples);
  report.add("latency_ms_p50", ws.p50_ms, "ms", ws.samples);
  // p90, not p99: on a shared 4-core host the serve p99 swung by more
  // than half between runs, beyond any bound a regression gate can use.
  // p99 is kept as the per-layer serve.request_ms_p99.
  report.add("latency_ms_tail", ws.p90_ms, "ms", ws.samples);
  report.add("throughput_tps", ws.tps, "1/s", ws.samples);
  report.add("slo_met_share", static_cast<double>(met) / static_cast<double>(sent),
             "share", sent);
  report.add("snr_db_min", snr_min, "dB", ok);
  report.add("peak_rss_mb", peak_rss_mb(), "MiB", 1);

  if (!args.trace) return;
  report.add("serve.create_lane_s", quantile(create_lane, 0.5), "s", kSetupSamples);
  report.add("serve.warmup_s", quantile(warmups, 0.5), "s", kSetupSamples);
  report.add("serve.request_ms_p99", ws.p99_ms, "ms", ws.samples);
  report.add("serve.submit_us_p99", quantile(submit_us, 0.99), "us", sent);
  report.add("serve.rejected", static_cast<double>(snap.rejected), "count");
  report.add("serve.shed", static_cast<double>(snap.shed), "count");
  report.add("serve.failed", static_cast<double>(snap.failed), "count");
  report.add("serve.queue_peak", static_cast<double>(snap.queue_peak), "count");
  report.add("serve.occupancy", snap.arena_occupancy, "share");
  double eff = 0.0;
  for (const auto& t : snap.tenants) eff += t.overlap_efficiency;
  report.add("serve.overlap_efficiency",
             snap.tenants.empty() ? 1.0 : eff / static_cast<double>(snap.tenants.size()),
             "share", static_cast<std::int64_t>(snap.tenants.size()));
  report.add("serve.steady_allocs", static_cast<double>(allocs), "count");
  report.add("loadgen.lag_ms_p99", quantile(lag_ms, 0.99), "ms", sent);
  report.add("loadgen.sent", static_cast<double>(sent), "count");

  // The same traffic mix again with spans on; the overhead is the
  // difference of the two halves' p50.
  tracer.enable(true);
  Phase traced;
  run_phase(args.seconds / 2, traced);
  tracer.enable(false);
  count_bad(traced);
  const WindowStats tws = windowed(traced);
  report.add("trace.overhead_pct", (tws.p50_ms - ws.p50_ms) / ws.p50_ms * 100.0,
             "%", tws.samples);
}

}  // namespace perfbench
