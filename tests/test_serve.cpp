// Serving-layer tests: deterministic admission control (workers=0), typed
// rejection when the bounded queue fills, serial and distributed round
// trips, bit-identity of co-scheduled epochs vs one-at-a-time submission,
// wire-latency execution, and queueing metrics accounting.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "serve/service.hpp"
#include "soi/exec.hpp"
#include "soi/serial.hpp"
#include "tune/registry.hpp"
#include "window/design.hpp"

namespace soi::serve {
namespace {

cvec random_signal(std::int64_t n, std::uint64_t seed) {
  cvec x(static_cast<std::size_t>(n));
  fill_gaussian(x, seed);
  return x;
}

LaneSpec low_lane(std::int64_t n, std::int64_t spr = 4) {
  LaneSpec spec;
  spec.n = n;
  spec.accuracy = win::Accuracy::kLow;
  spec.segments_per_rank = spr;
  return spec;
}

void expect_bitwise_equal(const cvec& a, const cvec& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(cplx)), 0)
        << what << " bin " << i;
  }
}

// --- admission control -------------------------------------------------------

TEST(ServeAdmission, WorkersZeroIsFullyDeterministic) {
  // workers = 0: nothing drains the queue, so admission outcomes depend
  // only on the submission sequence — exactly queue_capacity admits, then
  // typed rejection, with no scheduling race anywhere.
  ServeOptions so;
  so.ranks = 0;
  so.workers = 0;
  so.queue_capacity = 4;
  TransformService svc(so);
  const int lane = svc.create_lane(low_lane(1024));

  const cvec x = random_signal(1024, 7);
  std::vector<cvec> y(6, cvec(1024));
  std::vector<Ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(
        svc.submit(lane, /*tenant=*/i % 2, x, y[static_cast<std::size_t>(i)]));
    EXPECT_TRUE(tickets.back().valid());
  }
  // Queue full: the non-throwing probe reports nullopt, the throwing
  // entry point surfaces the typed error; both count as rejections.
  EXPECT_FALSE(svc.try_submit(lane, 0, x, y[4]).has_value());
  EXPECT_THROW(svc.submit(lane, 0, x, y[5]), AdmissionRejectedError);
  try {
    svc.submit(lane, 0, x, y[5]);
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kResourceExhausted);
  }

  auto m = svc.metrics();
  EXPECT_EQ(m.admitted, 4);
  EXPECT_EQ(m.rejected, 3);
  EXPECT_EQ(m.queued, 4);
  EXPECT_EQ(m.queue_peak, 4);
  EXPECT_EQ(m.completed, 0);

  // stop() fails everything still queued; waiters see the typed
  // resource-exhausted error rather than hanging.
  svc.stop();
  for (const auto& t : tickets) {
    try {
      svc.wait(t);
      FAIL() << "expected the queued request to fail on stop()";
    } catch (const Error& e) {
      EXPECT_EQ(e.status(), Status::kResourceExhausted);
    }
  }
}

TEST(ServeAdmission, RejectsUnknownLaneAndBadBuffers) {
  ServeOptions so;
  so.ranks = 0;
  so.workers = 0;
  so.queue_capacity = 2;
  TransformService svc(so);
  const int lane = svc.create_lane(low_lane(1024));
  const cvec x = random_signal(1024, 8);
  cvec y(1024);
  cvec y_short(512);
  EXPECT_THROW((void)svc.submit(lane + 1, 0, x, y), Error);
  EXPECT_THROW((void)svc.submit(lane, 0, x, y_short), Error);
  EXPECT_EQ(svc.metrics().admitted, 0);
}

// --- serial backend ----------------------------------------------------------

TEST(ServeSerial, RoundTripBitIdenticalToSharedPlan) {
  const std::int64_t n = 4096;
  ServeOptions so;
  so.ranks = 0;
  so.workers = 2;
  so.queue_capacity = 16;
  TransformService svc(so);
  const int lane = svc.create_lane(low_lane(n));
  svc.warmup();
  svc.reset_metrics();

  // Reference: the same shared plan the lane uses, executed solo through
  // a private ExecState (the registry memoises, so this IS the same plan
  // object the service holds).
  const auto prof = tune::PlanRegistry::global().profile(win::Accuracy::kLow);
  const auto plan = tune::PlanRegistry::global().serial_plan(n, 4, *prof);

  const int kReqs = 8;
  std::vector<cvec> xs, ys;
  for (int i = 0; i < kReqs; ++i) {
    xs.push_back(random_signal(n, 100 + static_cast<std::uint64_t>(i)));
    ys.emplace_back(static_cast<std::size_t>(n));
  }
  std::vector<Ticket> tickets;
  for (int i = 0; i < kReqs; ++i) {
    tickets.push_back(svc.submit(lane, i % 4, xs[static_cast<std::size_t>(i)],
                                 ys[static_cast<std::size_t>(i)]));
  }
  for (const auto& t : tickets) svc.wait(t);

  exec::ExecState st;
  plan->init_state(st);
  cvec ref(static_cast<std::size_t>(n));
  for (int i = 0; i < kReqs; ++i) {
    plan->forward_on(st, xs[static_cast<std::size_t>(i)], ref);
    expect_bitwise_equal(ys[static_cast<std::size_t>(i)], ref, "serial");
  }

  const auto m = svc.metrics();
  EXPECT_EQ(m.admitted, kReqs);
  EXPECT_EQ(m.completed, kReqs);
  EXPECT_EQ(m.failed, 0);
  EXPECT_GT(m.transforms_per_sec, 0.0);
  EXPECT_GE(m.p99_ms, m.p50_ms);
}

TEST(ServeSerial, MixedLanesExecuteConcurrently) {
  ServeOptions so;
  so.ranks = 0;
  so.workers = 2;
  so.queue_capacity = 16;
  TransformService svc(so);
  const int lane_a = svc.create_lane(low_lane(2048));
  const int lane_b = svc.create_lane(low_lane(4096));
  svc.warmup();

  const cvec xa = random_signal(2048, 21);
  const cvec xb = random_signal(4096, 22);
  std::vector<cvec> ya(4, cvec(2048)), yb(4, cvec(4096));
  std::vector<Ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(svc.submit(lane_a, 0, xa, ya[static_cast<std::size_t>(i)]));
    tickets.push_back(svc.submit(lane_b, 1, xb, yb[static_cast<std::size_t>(i)]));
  }
  for (const auto& t : tickets) svc.wait(t);
  for (int i = 1; i < 4; ++i) {
    expect_bitwise_equal(ya[static_cast<std::size_t>(i)], ya[0], "lane a");
    expect_bitwise_equal(yb[static_cast<std::size_t>(i)], yb[0], "lane b");
  }
  const auto m = svc.metrics();
  EXPECT_EQ(m.completed, 8);
  ASSERT_EQ(m.tenants.size(), 2u);
}

// --- distributed backend -----------------------------------------------------

TEST(ServeDist, CoScheduledBatchesBitIdenticalToSoloSubmission) {
  // The acceptance property: outputs must not depend on WHICH requests a
  // batch happened to group. Submit the same mixed-shape trace twice —
  // once all-at-once (forms co-scheduled batches of up to
  // max_concurrency) and once strictly one-at-a-time (every batch is
  // solo) — and require bitwise identical spectra.
  ServeOptions so;
  so.ranks = 2;
  so.max_concurrency = 4;
  so.queue_capacity = 16;
  TransformService svc(so);
  const int lane_a = svc.create_lane(low_lane(4096, 2));
  const int lane_b = svc.create_lane(low_lane(8192, 2));
  svc.warmup();
  svc.reset_metrics();

  const int kReqs = 8;
  std::vector<cvec> xs, batched, solo;
  std::vector<int> lanes;
  for (int i = 0; i < kReqs; ++i) {
    const bool big = (i % 2) == 1;
    const std::int64_t n = big ? 8192 : 4096;
    lanes.push_back(big ? lane_b : lane_a);
    xs.push_back(random_signal(n, 500 + static_cast<std::uint64_t>(i)));
    batched.emplace_back(static_cast<std::size_t>(n));
    solo.emplace_back(static_cast<std::size_t>(n));
  }

  std::vector<Ticket> tickets;
  for (int i = 0; i < kReqs; ++i) {
    tickets.push_back(svc.submit(lanes[static_cast<std::size_t>(i)], i % 4,
                                 xs[static_cast<std::size_t>(i)],
                                 batched[static_cast<std::size_t>(i)]));
  }
  for (const auto& t : tickets) svc.wait(t);

  for (int i = 0; i < kReqs; ++i) {
    const Ticket t = svc.submit(lanes[static_cast<std::size_t>(i)], i % 4,
                                xs[static_cast<std::size_t>(i)],
                                solo[static_cast<std::size_t>(i)]);
    svc.wait(t);  // wait immediately: the batch can only contain this one
  }

  for (int i = 0; i < kReqs; ++i) {
    expect_bitwise_equal(batched[static_cast<std::size_t>(i)],
                         solo[static_cast<std::size_t>(i)], "batch vs solo");
  }
  const auto m = svc.metrics();
  EXPECT_EQ(m.admitted, 2 * kReqs);
  EXPECT_EQ(m.completed, 2 * kReqs);
  EXPECT_EQ(m.failed, 0);
}

TEST(ServeDist, WireLatencyWorldRoundTrips) {
  // Same service, emulated 200us interconnect: results must be bitwise
  // identical to the zero-latency world (latency delays visibility, never
  // alters payloads or match order).
  const std::int64_t n = 4096;
  const cvec x = random_signal(n, 61);
  cvec fast(static_cast<std::size_t>(n)), slow(static_cast<std::size_t>(n));

  for (const double lat : {0.0, 200.0}) {
    ServeOptions so;
    so.ranks = 2;
    so.max_concurrency = 2;
    so.wire_latency_us = lat;
    so.batch_linger_us = lat > 0 ? 100.0 : 0.0;
    TransformService svc(so);
    const int lane = svc.create_lane(low_lane(n, 2));
    svc.warmup();
    cvec& y = lat > 0 ? slow : fast;
    const Ticket t = svc.submit(lane, 0, x, y);
    svc.wait(t);
  }
  expect_bitwise_equal(slow, fast, "wire latency");
}

TEST(ServeDist, RejectsCrossProcessAndUnknownTransports) {
  // The distributed backend hands service slot pointers across the rank
  // boundary, which only works when ranks are threads of this process. A
  // cross-process transport must be rejected at construction with a typed
  // error — and an unknown name must name the registered backends.
  ServeOptions so;
  so.ranks = 2;
  so.transport = "shm";
  try {
    TransformService svc(so);
    FAIL() << "cross-process transport must be rejected";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("shm"), std::string::npos)
        << e.what();
  }
  so.transport = "no-such-transport";
  EXPECT_THROW(TransformService{so}, InvalidArgumentError);

  // An explicit "sim" pin works exactly like the default.
  so.transport = "sim";
  TransformService svc(so);
  const int lane = svc.create_lane(low_lane(4096, 2));
  svc.warmup();
  const cvec x = random_signal(4096, 99);
  cvec y(4096);
  const Ticket t = svc.submit(lane, 0, x, y);
  svc.wait(t);
}

TEST(ServeDist, MetricsAccumulateAndReset) {
  ServeOptions so;
  so.ranks = 2;
  so.max_concurrency = 2;
  TransformService svc(so);
  const int lane = svc.create_lane(low_lane(4096, 2));
  svc.warmup();
  svc.reset_metrics();

  const cvec x = random_signal(4096, 77);
  cvec y(4096);
  for (int i = 0; i < 3; ++i) {
    const Ticket t = svc.submit(lane, i, x, y);
    svc.wait(t);
  }
  auto m = svc.metrics();
  EXPECT_EQ(m.admitted, 3);
  EXPECT_EQ(m.completed, 3);
  EXPECT_GT(m.p50_ms, 0.0);
  EXPECT_GT(m.transforms_per_sec, 0.0);
  EXPECT_EQ(m.tenants.size(), 3u);

  svc.reset_metrics();
  m = svc.metrics();
  EXPECT_EQ(m.admitted, 0);
  EXPECT_EQ(m.completed, 0);
  EXPECT_TRUE(m.tenants.empty());
}

// --- priority tiers + deadline shedding --------------------------------------

TEST(ServePriority, TierNamesRoundTripAndRejectUnknown) {
  EXPECT_EQ(priority_from_name("interactive"), Priority::kInteractive);
  EXPECT_EQ(priority_from_name("batch"), Priority::kBatch);
  EXPECT_EQ(priority_from_name("background"), Priority::kBackground);
  EXPECT_STREQ(priority_name(Priority::kBackground), "background");
  try {
    (void)priority_from_name("urgent");
    FAIL() << "unknown tier must be rejected";
  } catch (const InvalidArgumentError& e) {
    // The error lists every valid tier, mirroring the registry style.
    const std::string msg = e.what();
    EXPECT_NE(msg.find("urgent"), std::string::npos) << msg;
    EXPECT_NE(msg.find("interactive"), std::string::npos) << msg;
    EXPECT_NE(msg.find("background"), std::string::npos) << msg;
  }
}

TEST(ServeDist, MixedShapeEpochBitIdenticalAcrossPriorities) {
  // Mixed shapes AND mixed tiers packed into one epoch must come out
  // bit-identical to solo submission, and the per-tier counters must
  // attribute every completion to the tier it was submitted under.
  ServeOptions so;
  so.ranks = 2;
  so.max_concurrency = 4;
  so.queue_capacity = 16;
  TransformService svc(so);
  const int lane_a = svc.create_lane(low_lane(4096, 2));
  const int lane_b = svc.create_lane(low_lane(8192, 2));
  svc.warmup();
  svc.reset_metrics();

  const Priority tiers[4] = {Priority::kInteractive, Priority::kBackground,
                             Priority::kBatch, Priority::kInteractive};
  std::vector<cvec> xs, packed, solo;
  std::vector<int> lanes;
  for (int i = 0; i < 4; ++i) {
    const std::int64_t n = (i % 2) == 1 ? 8192 : 4096;
    lanes.push_back((i % 2) == 1 ? lane_b : lane_a);
    xs.push_back(random_signal(n, 900 + static_cast<std::uint64_t>(i)));
    packed.emplace_back(static_cast<std::size_t>(n));
    solo.emplace_back(static_cast<std::size_t>(n));
  }
  std::vector<Ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    SubmitOptions sopt;
    sopt.priority = tiers[i];
    tickets.push_back(svc.submit(lanes[static_cast<std::size_t>(i)], i,
                                 xs[static_cast<std::size_t>(i)],
                                 packed[static_cast<std::size_t>(i)], sopt));
  }
  for (const auto& t : tickets) svc.wait(t);
  for (int i = 0; i < 4; ++i) {
    const Ticket t = svc.submit(lanes[static_cast<std::size_t>(i)], i,
                                xs[static_cast<std::size_t>(i)],
                                solo[static_cast<std::size_t>(i)]);
    svc.wait(t);
  }
  for (int i = 0; i < 4; ++i) {
    expect_bitwise_equal(packed[static_cast<std::size_t>(i)],
                         solo[static_cast<std::size_t>(i)], "epoch vs solo");
  }
  const auto m = svc.metrics();
  EXPECT_EQ(m.completed, 8);
  EXPECT_EQ(m.failed, 0);
  EXPECT_EQ(m.shed, 0);  // nothing below capacity is ever shed
  EXPECT_EQ(m.tiers[0].completed, 2);      // the two interactive submits
  EXPECT_EQ(m.tiers[1].completed, 5);      // default-tier solo resubmits + 1
  EXPECT_EQ(m.tiers[2].completed, 1);      // the background submit
  EXPECT_EQ(m.tiers[0].admitted, 2);
  EXPECT_EQ(m.tiers[2].admitted, 1);
}

TEST(ServeDist, SameLaneMixedTiersBitIdenticalToSolo) {
  // One lane, tiers alternating interactive/background: each epoch packs
  // instances of ONE plan at different tiers, which the epoch scheduler
  // orders by tier. Chunked + overlapped so the post/front/tail classes
  // all occur. Outputs must match one-at-a-time submission bitwise.
  ServeOptions so;
  so.ranks = 2;
  so.max_concurrency = 4;
  so.queue_capacity = 16;
  so.batch_linger_us = 20'000.0;  // let each group of 4 fill one epoch
  TransformService svc(so);
  LaneSpec spec = low_lane(4096, 2);
  spec.chunk_depth = 2;
  const int lane = svc.create_lane(spec);
  svc.warmup();
  svc.reset_metrics();

  const int kReqs = 8;
  std::vector<cvec> xs, packed, solo;
  for (int i = 0; i < kReqs; ++i) {
    xs.push_back(random_signal(4096, 700 + static_cast<std::uint64_t>(i)));
    packed.emplace_back(4096);
    solo.emplace_back(4096);
  }
  for (int group = 0; group < kReqs; group += 4) {
    std::vector<Ticket> tickets;
    for (int i = group; i < group + 4; ++i) {
      SubmitOptions sopt;
      sopt.priority = (i % 2) == 0 ? Priority::kInteractive
                                   : Priority::kBackground;
      tickets.push_back(svc.submit(lane, i, xs[static_cast<std::size_t>(i)],
                                   packed[static_cast<std::size_t>(i)],
                                   sopt));
    }
    for (const auto& t : tickets) svc.wait(t);
  }
  for (int i = 0; i < kReqs; ++i) {
    const Ticket t = svc.submit(lane, i, xs[static_cast<std::size_t>(i)],
                                solo[static_cast<std::size_t>(i)]);
    svc.wait(t);
  }
  for (int i = 0; i < kReqs; ++i) {
    expect_bitwise_equal(packed[static_cast<std::size_t>(i)],
                         solo[static_cast<std::size_t>(i)],
                         "mixed tiers vs solo");
  }
  const auto m = svc.metrics();
  EXPECT_EQ(m.completed, 2 * kReqs);
  EXPECT_EQ(m.failed, 0);
  EXPECT_EQ(m.tiers[0].completed, kReqs / 2);
  EXPECT_EQ(m.tiers[2].completed, kReqs / 2);
}

TEST(ServeDist, InfeasibleBackgroundShedBeforeExecutionInteractiveCompletes) {
  // The wasted-work guarantee: a background request whose deadline cannot
  // be met is failed with the typed DeadlineExceededError BEFORE any of
  // its segment FFTs run (its output buffer is never touched), while a
  // co-admitted interactive request completes within its deadline.
  ServeOptions so;
  so.ranks = 2;
  so.max_concurrency = 4;
  so.queue_capacity = 16;
  TransformService svc(so);
  const int lane = svc.create_lane(low_lane(4096, 2));
  svc.warmup();
  svc.reset_metrics();
  ASSERT_GT(svc.lane_cost_seconds(lane), 0.0);

  const cvec x = random_signal(4096, 1234);
  const cplx sentinel{-42.0, 42.0};
  cvec y_interactive(4096), y_background(4096, sentinel);

  SubmitOptions inter;
  inter.priority = Priority::kInteractive;
  inter.deadline_ms = 10'000.0;  // generous: must complete
  SubmitOptions bg;
  bg.priority = Priority::kBackground;
  // Infeasible by construction: the modeled lane cost is strictly
  // positive, so cost > deadline budget no matter how fast the scheduler
  // picks the request up.
  bg.deadline_ms = 1e-7;
  const Ticket ti = svc.submit(lane, 0, x, y_interactive, inter);
  const Ticket tb = svc.submit(lane, 1, x, y_background, bg);

  svc.wait(ti);  // interactive result arrives despite the doomed peer
  try {
    svc.wait(tb);
    FAIL() << "infeasible background request must be shed";
  } catch (const DeadlineExceededError& e) {
    EXPECT_EQ(e.status(), Status::kDeadlineExceeded);
  }
  // Shed strictly before execution: the output block was never written.
  for (std::size_t i = 0; i < y_background.size(); ++i) {
    ASSERT_EQ(std::memcmp(&y_background[i], &sentinel, sizeof(cplx)), 0)
        << "shed request's output was touched at bin " << i;
  }
  const auto m = svc.metrics();
  EXPECT_EQ(m.completed, 1);
  EXPECT_EQ(m.shed, 1);
  EXPECT_EQ(m.failed, 0);  // shed is disjoint from execution failure
  EXPECT_EQ(m.tiers[0].completed, 1);
  EXPECT_EQ(m.tiers[2].shed, 1);
  EXPECT_GE(m.tiers[0].p50_ms, 0.0);
  EXPECT_LT(m.tiers[0].p50_ms, 10'000.0);  // within its deadline
}

TEST(ServeDist, EpochBudgetThrottlesPackingWithoutLivelock) {
  // A budget far below one request's modeled cost degenerates every epoch
  // to a single member (the first always fits — no livelock); everything
  // still completes, bit-identically.
  ServeOptions so;
  so.ranks = 2;
  so.max_concurrency = 4;
  so.queue_capacity = 16;
  so.epoch_budget_ms = 1e-9;
  TransformService svc(so);
  const int lane = svc.create_lane(low_lane(4096, 2));
  svc.warmup();
  svc.reset_metrics();

  const int kReqs = 6;
  std::vector<cvec> xs, ys;
  std::vector<Ticket> tickets;
  for (int i = 0; i < kReqs; ++i) {
    xs.push_back(random_signal(4096, 40 + static_cast<std::uint64_t>(i)));
    ys.emplace_back(4096);
    tickets.push_back(svc.submit(lane, i, xs[static_cast<std::size_t>(i)],
                                 ys[static_cast<std::size_t>(i)]));
  }
  for (const auto& t : tickets) svc.wait(t);
  for (int i = 0; i < kReqs; ++i) {
    cvec ref(4096);
    const Ticket t =
        svc.submit(lane, i, xs[static_cast<std::size_t>(i)], ref);
    svc.wait(t);
    expect_bitwise_equal(ys[static_cast<std::size_t>(i)], ref, "budgeted");
  }
  EXPECT_EQ(svc.metrics().completed, 2 * kReqs);
  EXPECT_EQ(svc.metrics().shed, 0);
}

TEST(ServeSerial, WorkerBackendShedsAndPrefersInteractive) {
  // The serial worker backend shares the deadline/tier semantics: an
  // infeasible request sheds at dispatch, and the tier-aware pick drains
  // interactive requests ahead of earlier-queued background ones.
  ServeOptions so;
  so.ranks = 0;
  so.workers = 1;
  so.queue_capacity = 8;
  TransformService svc(so);
  const int lane = svc.create_lane(low_lane(2048));
  svc.warmup();
  svc.reset_metrics();
  const cvec x = random_signal(2048, 5);
  cvec y1(2048), y2(2048);

  SubmitOptions bg;
  bg.priority = Priority::kBackground;
  bg.deadline_ms = 1e-7;  // infeasible: modeled cost > 0
  SubmitOptions inter;
  inter.priority = Priority::kInteractive;
  const Ticket tb = svc.submit(lane, 0, x, y1, bg);
  const Ticket ti = svc.submit(lane, 1, x, y2, inter);
  svc.wait(ti);
  EXPECT_THROW(svc.wait(tb), DeadlineExceededError);
  const auto m = svc.metrics();
  EXPECT_EQ(m.completed, 1);
  EXPECT_EQ(m.shed, 1);
  EXPECT_EQ(m.tiers[2].shed, 1);
  EXPECT_EQ(m.tiers[0].completed, 1);
}

}  // namespace
}  // namespace soi::serve
