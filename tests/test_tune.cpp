// Tuning subsystem tests: candidate-space enumeration, the plan registry's
// exactly-once concurrency contract and LRU eviction, wisdom round-trips
// (including version rejection) and autotuner determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "net/costmodel.hpp"
#include "net/fault.hpp"
#include "net/topology.hpp"
#include "soi/params.hpp"
#include "tune/autotuner.hpp"
#include "tune/candidates.hpp"
#include "tune/registry.hpp"
#include "tune/wisdom.hpp"
#include "window/design.hpp"

namespace soi::tune {
namespace {

// --- candidate space ---------------------------------------------------------

TEST(Candidates, KeyAndCandidateRoundTrip) {
  const TuneKey key{1 << 18, 8, win::Accuracy::kMedium};
  EXPECT_EQ(key.str(), "n=262144 ranks=8 acc=medium");
  EXPECT_EQ(parse_tune_key(key.str()), key);

  const Candidate cand{win::Accuracy::kLow, 4, net::AlltoallAlgo::kDirect,
                       true, 16, 2, {}, {}, {}};
  EXPECT_EQ(cand.describe(),
            "tier=low spr=4 algo=direct overlap=1 bw=16 cd=2");
  EXPECT_EQ(parse_candidate(cand.describe()), cand);
}

TEST(Candidates, ParseAcceptsV2LinesWithoutChunkDepth) {
  // v2 wisdom predates the cd field: it must parse with chunk_depth
  // defaulting to 1 (the whole-rank exchange).
  const auto c = parse_candidate("tier=low spr=4 algo=direct overlap=1 bw=8");
  EXPECT_EQ(c.chunk_depth, 1);
  EXPECT_EQ(c.batch_width, 8);
  // The depth must divide segments_per_rank.
  EXPECT_THROW(
      parse_candidate("tier=low spr=4 algo=direct overlap=1 bw=0 cd=3"),
      Error);
  EXPECT_THROW(
      parse_candidate("tier=low spr=4 algo=direct overlap=1 bw=0 cd=0"),
      Error);
}

TEST(Candidates, ParseAcceptsV1LinesWithoutBatchWidth) {
  // v1 wisdom predates the bw field: it must parse with bw defaulting to
  // the auto width (0).
  const auto c = parse_candidate("tier=low spr=4 algo=direct overlap=1");
  EXPECT_EQ(c.batch_width, 0);
  EXPECT_EQ(c.segments_per_rank, 4);
  EXPECT_THROW(parse_candidate("tier=low spr=4 algo=direct overlap=1 bw=-2"),
               Error);
}

TEST(Candidates, ParseRejectsMalformedText) {
  EXPECT_THROW(parse_tune_key("n=4096 ranks=4"), Error);       // missing acc
  EXPECT_THROW(parse_tune_key("n=4096 ranks=4 acc=?"), Error); // bad tier
  EXPECT_THROW(parse_candidate("tier=low spr=2 algo=rotating overlap=0"),
               Error);
  EXPECT_THROW(parse_candidate("spr=2 algo=direct overlap=0"), Error);
}

TEST(Candidates, DefaultConfigurationLeadsTheEnumeration) {
  const TuneKey key{1 << 16, 8, win::Accuracy::kLow};
  const auto space = candidate_space(key);
  ASSERT_FALSE(space.empty());
  // The seed's hard-coded configuration must be first: it is the tuner's
  // tie-break anchor ("tuned never worse than default").
  const Candidate dflt{key.accuracy, 1, net::AlltoallAlgo::kPairwise, false,
                       0, 1, {}, {}, {}};
  EXPECT_EQ(space.front(), dflt);
}

TEST(Candidates, EveryCandidateIsFeasible) {
  const TuneKey key{1 << 16, 8, win::Accuracy::kLow};
  for (const auto& cand : candidate_space(key)) {
    // Admissible tier: at least as accurate as requested.
    EXPECT_GE(win::target_snr_db(cand.accuracy),
              win::target_snr_db(key.accuracy));
    // Geometry constructs and the halo fits inside one segment.
    const auto prof = PlanRegistry::global().profile(cand.accuracy);
    const core::SoiGeometry g(key.n, key.ranks * cand.segments_per_rank,
                              *prof);
    EXPECT_LE(g.halo(), g.m()) << cand.describe();
  }
}

TEST(Candidates, BatchWidthsEnumerated) {
  const TuneKey key{1 << 16, 8, win::Accuracy::kLow};
  bool saw0 = false, saw8 = false, saw32 = false;
  for (const auto& cand : candidate_space(key)) {
    saw0 |= cand.batch_width == 0;
    saw8 |= cand.batch_width == 8;
    saw32 |= cand.batch_width == 32;
    EXPECT_TRUE(cand.batch_width == 0 || cand.batch_width == 8 ||
                cand.batch_width == 32)
        << cand.describe();
  }
  EXPECT_TRUE(saw0 && saw8 && saw32);
}

TEST(Candidates, NoOverlapCandidatesOnOneRank) {
  const TuneKey key{1 << 14, 1, win::Accuracy::kLow};
  for (const auto& cand : candidate_space(key)) {
    EXPECT_FALSE(cand.overlap) << cand.describe();
  }
}

TEST(Candidates, ChunkDepthOnlyForOverlapAndDividesSpr) {
  const TuneKey key{1 << 16, 8, win::Accuracy::kLow};
  bool saw_chunked = false;
  for (const auto& cand : candidate_space(key)) {
    if (!cand.overlap) {
      EXPECT_EQ(cand.chunk_depth, 1) << cand.describe();
    } else {
      EXPECT_GE(cand.chunk_depth, 1) << cand.describe();
      EXPECT_LE(cand.chunk_depth, cand.segments_per_rank)
          << cand.describe();
      EXPECT_EQ(cand.segments_per_rank % cand.chunk_depth, 0)
          << cand.describe();
      saw_chunked |= cand.chunk_depth > 1;
    }
  }
  EXPECT_TRUE(saw_chunked);  // the new knob actually enumerates
}

TEST(Candidates, TopologyRoundTripsAndFlatTextUnchanged) {
  // Flat candidates must keep the exact pre-v4 describe() text (no topo
  // token); non-flat candidates append one and round-trip through
  // parse_candidate.
  Candidate cand{win::Accuracy::kLow, 6, net::AlltoallAlgo::kPairwise,
                 true, 0, 3, "two-level:4", {}, {}};
  EXPECT_EQ(cand.describe(),
            "tier=low spr=6 algo=pairwise overlap=1 bw=0 cd=3 topo=two-level:4");
  EXPECT_EQ(parse_candidate(cand.describe()), cand);
  cand.topology = "torus:4x2x1";
  EXPECT_EQ(parse_candidate(cand.describe()), cand);
  // "flat" normalises to the empty (default) topology.
  const auto flat = parse_candidate(
      "tier=low spr=6 algo=pairwise overlap=1 bw=0 cd=3 topo=flat");
  EXPECT_TRUE(flat.topology.empty());
  EXPECT_EQ(flat.describe(),
            "tier=low spr=6 algo=pairwise overlap=1 bw=0 cd=3");
  EXPECT_THROW(
      parse_candidate("tier=low spr=2 algo=pairwise overlap=0 topo=ring"),
      Error);
}

TEST(Candidates, TopologyVariantsEnumeratedOnPairwiseAutoWidthOnly) {
  const TuneKey key{1 << 16, 8, win::Accuracy::kLow};
  bool saw_two_level = false, saw_torus = false;
  for (const auto& cand : candidate_space(key)) {
    if (cand.topology.empty()) continue;
    // Staged schedules ride only the pairwise/auto-width axis.
    EXPECT_EQ(cand.alltoall_algo, net::AlltoallAlgo::kPairwise)
        << cand.describe();
    EXPECT_EQ(cand.batch_width, 0) << cand.describe();
    saw_two_level |= cand.topology.rfind("two-level", 0) == 0;
    saw_torus |= cand.topology.rfind("torus", 0) == 0;
  }
  EXPECT_TRUE(saw_two_level);
  EXPECT_TRUE(saw_torus);
  // Two ranks: no non-degenerate staged shape exists.
  for (const auto& cand : candidate_space(TuneKey{1 << 14, 2,
                                                  win::Accuracy::kLow})) {
    EXPECT_TRUE(cand.topology.empty()) << cand.describe();
  }
}

TEST(Candidates, InfeasibleSegmentCountsArePruned) {
  // Small N with many ranks: large spr values make the halo exceed one
  // segment (or break divisibility) and must not appear.
  const TuneKey key{1 << 12, 4, win::Accuracy::kFull};
  for (const auto& cand : candidate_space(key)) {
    EXPECT_EQ(cand.segments_per_rank, 1) << cand.describe();
  }
}

// --- plan registry -----------------------------------------------------------

TEST(Registry, ConcurrentLookupsConstructExactlyOnce) {
  PlanRegistry reg(8);
  std::atomic<int> builds{0};
  const int kThreads = 16;
  std::vector<std::shared_ptr<const int>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[static_cast<std::size_t>(t)] = reg.get_or_build<int>(
          "the-key", [&]() -> std::shared_ptr<const int> {
            builds.fetch_add(1);
            // Widen the race window: every other thread must wait, not
            // start a second construction.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            return std::make_shared<const int>(42);
          });
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(builds.load(), 1);
  for (const auto& p : got) {
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, 42);
    EXPECT_EQ(p.get(), got[0].get());  // one shared instance
  }
  const auto stats = reg.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, kThreads - 1);
}

TEST(Registry, ConcurrentMixedShapeLookupsUnderEviction) {
  // The serving layer's access pattern: many threads interleaving
  // lookups/inserts of DIFFERENT shapes against a registry too small to
  // hold them all. Every lookup must return a valid value for its own
  // key (no cross-key mixups under eviction churn) and handed-out
  // pointers must outlive eviction.
  PlanRegistry reg(3);
  const int kThreads = 8;
  const int kKeys = 6;
  const int kIters = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int k = (t + i) % kKeys;
        const auto key = "shape-" + std::to_string(k);
        const auto v = reg.get_or_build<int>(
            key, [k]() -> std::shared_ptr<const int> {
              return std::make_shared<const int>(k);
            });
        if (v == nullptr || *v != k) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const auto stats = reg.stats();
  EXPECT_LE(stats.size, 3u);
  EXPECT_GT(stats.evictions, 0);  // capacity 3 < 6 live keys: churn happened
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kIters);
}

TEST(Registry, SerialPlanSharedAndReused) {
  PlanRegistry reg(8);
  const auto prof = reg.profile(win::Accuracy::kLow);
  const auto a = reg.serial_plan(1 << 12, 4, *prof);
  const auto b = reg.serial_plan(1 << 12, 4, *prof);
  EXPECT_EQ(a.get(), b.get());
  const auto other = reg.serial_plan(1 << 13, 4, *prof);
  EXPECT_NE(a.get(), other.get());
}

TEST(Registry, LruEvictionDropsColdestEntry) {
  PlanRegistry reg(2);
  auto build_counting = [](std::atomic<int>& n) {
    return [&n]() -> std::shared_ptr<const int> {
      n.fetch_add(1);
      return std::make_shared<const int>(0);
    };
  };
  std::atomic<int> ba{0}, bb{0}, bc{0};
  (void)reg.get_or_build<int>("a", build_counting(ba));
  (void)reg.get_or_build<int>("b", build_counting(bb));
  (void)reg.get_or_build<int>("a", build_counting(ba));  // touch a: b coldest
  (void)reg.get_or_build<int>("c", build_counting(bc));  // evicts b
  EXPECT_EQ(reg.stats().evictions, 1);
  EXPECT_EQ(reg.stats().size, 2u);
  // a and c are resident; b was evicted and must rebuild on next lookup.
  (void)reg.get_or_build<int>("a", build_counting(ba));
  (void)reg.get_or_build<int>("c", build_counting(bc));
  EXPECT_EQ(ba.load(), 1);
  EXPECT_EQ(bc.load(), 1);
  (void)reg.get_or_build<int>("b", build_counting(bb));
  EXPECT_EQ(bb.load(), 2);
}

TEST(Registry, EvictedHandlesStayValid) {
  PlanRegistry reg(1);
  const auto a = reg.get_or_build<int>(
      "a", []() -> std::shared_ptr<const int> {
        return std::make_shared<const int>(11);
      });
  (void)reg.get_or_build<int>("b", []() -> std::shared_ptr<const int> {
    return std::make_shared<const int>(22);
  });  // capacity 1: evicts a
  EXPECT_EQ(reg.stats().evictions, 1);
  EXPECT_EQ(*a, 11);  // handed-out pointer survives eviction
}

TEST(Registry, ThrowingBuildIsNotCachedAndPropagates) {
  PlanRegistry reg(4);
  int attempts = 0;
  auto failing = [&]() -> std::shared_ptr<const int> {
    ++attempts;
    throw Error("build exploded");
  };
  EXPECT_THROW((void)reg.get_or_build<int>("k", failing), Error);
  // The failure must not poison the key: a later build runs and succeeds.
  const auto ok = reg.get_or_build<int>(
      "k", []() -> std::shared_ptr<const int> {
        return std::make_shared<const int>(5);
      });
  EXPECT_EQ(attempts, 1);
  EXPECT_EQ(*ok, 5);
}

TEST(Registry, ClearDropsEntriesButNotHandles) {
  PlanRegistry reg(4);
  const auto prof = reg.profile(win::Accuracy::kLow);
  reg.clear();
  EXPECT_EQ(reg.stats().size, 0u);
  EXPECT_GT(prof->taps, 0);  // still usable
}

// --- wisdom ------------------------------------------------------------------

TunedConfig demo_config() {
  TunedConfig cfg;
  cfg.candidate = Candidate{win::Accuracy::kLow, 2,
                            net::AlltoallAlgo::kDirect, true, 8, 1, {}, {},
                            {}};
  cfg.profile = win::make_profile(win::Accuracy::kLow);
  cfg.score_seconds = 1.25e-3;
  return cfg;
}

TEST(Wisdom, RoundTripPreservesDecisionAndProfile) {
  WisdomStore store;
  const TuneKey key{1 << 14, 4, win::Accuracy::kLow};
  store.put(key, demo_config());
  const auto reparsed = WisdomStore::parse(store.serialize());
  const auto got = reparsed.find(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->candidate, demo_config().candidate);
  EXPECT_DOUBLE_EQ(got->score_seconds, 1.25e-3);
  // Profile numerics survive: same taps and oversampling, window usable.
  EXPECT_EQ(got->profile.taps, demo_config().profile.taps);
  EXPECT_EQ(got->profile.mu, demo_config().profile.mu);
  EXPECT_EQ(got->profile.nu, demo_config().profile.nu);
  ASSERT_NE(got->profile.window, nullptr);
  EXPECT_NEAR(got->profile.window->hhat(0.0),
              demo_config().profile.window->hhat(0.0), 1e-15);
}

TEST(Wisdom, FindMissesUnknownShape) {
  WisdomStore store;
  store.put(TuneKey{1 << 14, 4, win::Accuracy::kLow}, demo_config());
  EXPECT_FALSE(
      store.find(TuneKey{1 << 14, 8, win::Accuracy::kLow}).has_value());
  EXPECT_FALSE(
      store.find(TuneKey{1 << 14, 4, win::Accuracy::kFull}).has_value());
}

TEST(Wisdom, PutReplacesExistingEntry) {
  WisdomStore store;
  const TuneKey key{1 << 14, 4, win::Accuracy::kLow};
  store.put(key, demo_config());
  auto updated = demo_config();
  updated.candidate.segments_per_rank = 4;
  store.put(key, updated);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.find(key)->candidate.segments_per_rank, 4);
}

TEST(Wisdom, WrongVersionRejectedClearly) {
  WisdomStore store;
  store.put(TuneKey{1 << 14, 4, win::Accuracy::kLow}, demo_config());
  std::string text = store.serialize();
  const std::string header(WisdomStore::kHeader);
  text.replace(0, header.size(), "soiwisdom v9");
  try {
    (void)WisdomStore::parse(text);
    FAIL() << "parse accepted a v9 header";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version mismatch"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)WisdomStore::parse("no header at all\n"), Error);
  EXPECT_THROW((void)WisdomStore::parse(""), Error);
}

TEST(Wisdom, V1FilesStillReadable) {
  // A v1 file: old header, candidate lines without the bw field. It must
  // parse (bw defaults to auto) and re-serialise at the current version.
  WisdomStore store;
  const TuneKey key{1 << 14, 4, win::Accuracy::kLow};
  store.put(key, demo_config());
  std::string text = store.serialize();
  const std::string header(WisdomStore::kHeader);
  text.replace(0, header.size(), WisdomStore::kHeaderV1);
  const auto bw = text.find(" bw=8");
  ASSERT_NE(bw, std::string::npos);
  text.erase(bw, 5);
  const auto cd = text.find(" cd=1");
  ASSERT_NE(cd, std::string::npos);
  text.erase(cd, 5);
  const auto reparsed = WisdomStore::parse(text);
  const auto got = reparsed.find(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->candidate.batch_width, 0);   // v1 default: auto width
  EXPECT_EQ(got->candidate.chunk_depth, 1);   // pre-v3 default: unchunked
  EXPECT_EQ(reparsed.serialize().rfind(WisdomStore::kHeader, 0), 0u);
}

TEST(Wisdom, V2FilesStillReadable) {
  // A v2 file: v2 header, bw present, no cd field, no stages field.
  WisdomStore store;
  const TuneKey key{1 << 14, 4, win::Accuracy::kLow};
  store.put(key, demo_config());
  std::string text = store.serialize();
  const std::string header(WisdomStore::kHeader);
  text.replace(0, header.size(), WisdomStore::kHeaderV2);
  const auto cd = text.find(" cd=1");
  ASSERT_NE(cd, std::string::npos);
  text.erase(cd, 5);
  const auto reparsed = WisdomStore::parse(text);
  const auto got = reparsed.find(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->candidate.batch_width, 8);
  EXPECT_EQ(got->candidate.chunk_depth, 1);
  EXPECT_TRUE(got->stage_seconds.empty());
}

TEST(Wisdom, V3FilesStillReadable) {
  // A v3 file: v3 header, bw and cd present, no topo field. It must parse
  // with the flat default topology and re-serialise at the current
  // version. Flat entries' candidate text is byte-identical across v3/v4,
  // so swapping the header alone yields a valid v3 file.
  WisdomStore store;
  const TuneKey key{1 << 14, 4, win::Accuracy::kLow};
  store.put(key, demo_config());
  std::string text = store.serialize();
  const std::string header(WisdomStore::kHeader);
  text.replace(0, header.size(), WisdomStore::kHeaderV3);
  const auto reparsed = WisdomStore::parse(text);
  const auto got = reparsed.find(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->candidate, demo_config().candidate);
  EXPECT_TRUE(got->candidate.topology.empty());
  EXPECT_EQ(reparsed.serialize().rfind(WisdomStore::kHeader, 0), 0u);
}

TEST(Wisdom, V4TopologyAndDeepChunksRoundTrip) {
  // The v4 additions together: a tuned decision carrying a non-flat
  // topology and a non-power-of-two chunk depth survives a full
  // serialize/parse cycle.
  WisdomStore store;
  const TuneKey key{36864, 4, win::Accuracy::kMedium};
  TunedConfig cfg;
  cfg.candidate = Candidate{win::Accuracy::kMedium, 6,
                            net::AlltoallAlgo::kPairwise, true, 0, 3,
                            "torus:2x2x1", {}, {}};
  cfg.profile = win::make_profile(win::Accuracy::kMedium);
  cfg.score_seconds = 4.5e-4;
  store.put(key, cfg);
  const auto reparsed = WisdomStore::parse(store.serialize());
  const auto got = reparsed.find(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->candidate, cfg.candidate);
  EXPECT_EQ(got->candidate.topology, "torus:2x2x1");
  EXPECT_EQ(got->candidate.chunk_depth, 3);
}

TEST(Wisdom, V4FilesStillReadable) {
  // A v4 file: v4 header, no transport token. Entries without a
  // transport pin serialize byte-identically across v4/v5, so swapping the
  // header alone yields a valid v4 file. It must parse with an empty
  // transport pin and re-serialise at the current version.
  WisdomStore store;
  const TuneKey key{1 << 14, 4, win::Accuracy::kLow};
  store.put(key, demo_config());
  std::string text = store.serialize();
  const std::string header(WisdomStore::kHeader);
  text.replace(0, header.size(), WisdomStore::kHeaderV4);
  const auto reparsed = WisdomStore::parse(text);
  const auto got = reparsed.find(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->candidate, demo_config().candidate);
  EXPECT_TRUE(got->candidate.transport.empty());
  EXPECT_EQ(reparsed.serialize().rfind(WisdomStore::kHeader, 0), 0u);
}

TEST(Wisdom, V5BackendPinsRoundTrip) {
  // The v5 addition: a decision pinned to a transport survives a
  // serialize/parse cycle, and the token appears in the text. Writers
  // never emit the legacy engine= token.
  WisdomStore store;
  const TuneKey key{1 << 16, 8, win::Accuracy::kMedium};
  TunedConfig cfg;
  cfg.candidate = Candidate{win::Accuracy::kMedium, 4,
                            net::AlltoallAlgo::kDirect, true, 0, 2,
                            "", "shm", {}};
  cfg.profile = win::make_profile(win::Accuracy::kMedium);
  cfg.score_seconds = 2.5e-4;
  store.put(key, cfg);
  const std::string text = store.serialize();
  EXPECT_NE(text.find("transport=shm"), std::string::npos);
  EXPECT_EQ(text.find("engine="), std::string::npos);
  const auto reparsed = WisdomStore::parse(text);
  const auto got = reparsed.find(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->candidate, cfg.candidate);
  EXPECT_EQ(got->candidate.transport, "shm");
}

TEST(Wisdom, LegacyEngineBatchPinReadsAsUnpinned) {
  // v5/v6 writers emitted engine=<name> for engine-pinned decisions.
  // "batch" is the only engine, so that pin reads as unpinned and the
  // line re-serialises without it.
  WisdomStore store;
  const TuneKey key{1 << 14, 4, win::Accuracy::kLow};
  store.put(key, demo_config());
  std::string text = store.serialize();
  const std::string cand = demo_config().candidate.describe();
  const auto at = text.find(cand);
  ASSERT_NE(at, std::string::npos);
  text.insert(at + cand.size(), " transport=sim engine=batch");
  const auto got = WisdomStore::parse(text).find(key);
  ASSERT_TRUE(got.has_value());
  Candidate want = demo_config().candidate;
  want.transport = "sim";
  EXPECT_EQ(got->candidate, want);
  EXPECT_EQ(WisdomStore::parse(text).serialize().find("engine="),
            std::string::npos);
}

TEST(Wisdom, LegacyNonBatchEnginePinRejected) {
  // A legacy line pinned to any other engine cannot be replayed: a typed
  // error, never a silent fallback.
  WisdomStore store;
  store.put(TuneKey{1 << 14, 4, win::Accuracy::kLow}, demo_config());
  std::string text = store.serialize();
  const std::string cand = demo_config().candidate.describe();
  const auto at = text.find(cand);
  ASSERT_NE(at, std::string::npos);
  text.insert(at + cand.size(), " engine=scalar");
  EXPECT_THROW((void)WisdomStore::parse(text), InvalidArgumentError);
  EXPECT_THROW((void)parse_candidate(cand + " engine=scalar"),
               InvalidArgumentError);
}

TEST(Wisdom, UnpinnedEntriesCarryNoBackendTokens) {
  // Decisions without backend pins must serialize without transport= /
  // engine= tokens: their candidate text stays byte-compatible with v4
  // readers of this repo's lineage, and the pins stay an opt-in.
  WisdomStore store;
  store.put(TuneKey{1 << 14, 4, win::Accuracy::kLow}, demo_config());
  const std::string text = store.serialize();
  EXPECT_EQ(text.find("transport="), std::string::npos);
  EXPECT_EQ(text.find("engine="), std::string::npos);
}

TEST(Wisdom, V6CodingRoundTrip) {
  // The v6 addition: a decision carrying an erasure-coding choice
  // serializes with a code= token and survives a parse cycle.
  WisdomStore store;
  const TuneKey key{1 << 16, 8, win::Accuracy::kMedium};
  TunedConfig cfg;
  cfg.candidate = Candidate{win::Accuracy::kMedium, 2,
                            net::AlltoallAlgo::kPairwise, true, 0, 2,
                            "two-level:2", "", "4+1"};
  cfg.profile = win::make_profile(win::Accuracy::kMedium);
  cfg.score_seconds = 3.0e-4;
  store.put(key, cfg);
  const std::string text = store.serialize();
  EXPECT_NE(text.find("code=4+1"), std::string::npos);
  const auto reparsed = WisdomStore::parse(text);
  const auto got = reparsed.find(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->candidate, cfg.candidate);
  EXPECT_EQ(got->candidate.coding, "4+1");
}

TEST(Wisdom, UncodedEntriesCarryNoCodeToken) {
  // Retransmit-only decisions must serialize without a code= token:
  // their candidate text stays byte-compatible with v5 readers of this
  // repo's lineage, and the coding knob stays an opt-in.
  WisdomStore store;
  store.put(TuneKey{1 << 14, 4, win::Accuracy::kLow}, demo_config());
  EXPECT_EQ(store.serialize().find("code="), std::string::npos);
}

TEST(Wisdom, V5FilesStillReadable) {
  // A v5 file: v5 header, no code= token. Uncoded entries serialize
  // byte-identically across v5/v6, so swapping the header alone yields a
  // valid v5 file. It must parse with coding off and re-serialise at the
  // current version.
  WisdomStore store;
  const TuneKey key{1 << 14, 4, win::Accuracy::kLow};
  store.put(key, demo_config());
  std::string text = store.serialize();
  const std::string header(WisdomStore::kHeader);
  text.replace(0, header.size(), WisdomStore::kHeaderV5);
  const auto reparsed = WisdomStore::parse(text);
  const auto got = reparsed.find(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->candidate, demo_config().candidate);
  EXPECT_TRUE(got->candidate.coding.empty());
  EXPECT_EQ(reparsed.serialize().rfind(WisdomStore::kHeader, 0), 0u);
}

TEST(Wisdom, StageSecondsRoundTrip) {
  WisdomStore store;
  const TuneKey key{1 << 14, 4, win::Accuracy::kLow};
  auto cfg = demo_config();
  cfg.stage_seconds = {{"halo", 1.5e-5}, {"conv", 3.25e-4},
                       {"exchange", 2.0e-4}};
  store.put(key, cfg);
  const auto reparsed = WisdomStore::parse(store.serialize());
  const auto got = reparsed.find(key);
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->stage_seconds.size(), 3u);
  EXPECT_EQ(got->stage_seconds[0].first, "halo");
  EXPECT_DOUBLE_EQ(got->stage_seconds[0].second, 1.5e-5);
  EXPECT_EQ(got->stage_seconds[1].first, "conv");
  EXPECT_DOUBLE_EQ(got->stage_seconds[1].second, 3.25e-4);
  EXPECT_EQ(got->stage_seconds[2].first, "exchange");
  EXPECT_DOUBLE_EQ(got->stage_seconds[2].second, 2.0e-4);
  // Profile survives alongside the trailing stages field.
  ASSERT_NE(got->profile.window, nullptr);
}

TEST(Wisdom, MalformedLineRejected) {
  const std::string text =
      std::string(WisdomStore::kHeader) + "\nonly | three | fields\n";
  EXPECT_THROW((void)WisdomStore::parse(text), Error);
}

TEST(Wisdom, CommentsAndBlankLinesIgnored) {
  WisdomStore store;
  const TuneKey key{1 << 14, 4, win::Accuracy::kLow};
  store.put(key, demo_config());
  std::string text = store.serialize();
  text += "\n# trailing comment\n\n";
  const auto reparsed = WisdomStore::parse(text);
  EXPECT_EQ(reparsed.size(), 1u);
  EXPECT_TRUE(reparsed.find(key).has_value());
}

// --- autotuner ---------------------------------------------------------------

TEST(Autotune, ModeledScoringIsDeterministic) {
  const TuneKey key{1 << 16, 8, win::Accuracy::kLow};
  const auto a = autotune(key);
  const auto b = autotune(key);
  EXPECT_EQ(a.best.candidate, b.best.candidate);
  EXPECT_EQ(a.best.total_seconds(), b.best.total_seconds());  // bitwise
  ASSERT_EQ(a.scores.size(), b.scores.size());
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    EXPECT_EQ(a.scores[i].total_seconds(), b.scores[i].total_seconds());
  }
}

TEST(Autotune, WinnerIsNeverWorseThanDefault) {
  for (const auto& key :
       {TuneKey{1 << 14, 4, win::Accuracy::kFull},
        TuneKey{1 << 18, 8, win::Accuracy::kLow},
        TuneKey{1 << 16, 16, win::Accuracy::kMedium}}) {
    const auto result = autotune(key);
    const Candidate dflt{key.accuracy, 1, net::AlltoallAlgo::kPairwise,
                         false, 0, 1, {}, {}, {}};
    const auto dflt_score = score_candidate(key, dflt);
    EXPECT_LE(result.best.total_seconds(), dflt_score.total_seconds())
        << key.str();
  }
}

TEST(Autotune, RetransmitPricingReordersCandidatesUnderLoss) {
  // The modeled scorer must stop assuming retries are free: on a clean
  // link the coded candidate loses (its parity inflates wire volume by
  // (k+r)/k for nothing), and on a lossy link the ranking flips — the
  // uncoded candidate pays loss_rate/(1-loss_rate) retransmit round trips
  // per message while the coded one absorbs losses in band.
  const TuneKey key{1 << 16, 8, win::Accuracy::kLow};
  Candidate uncoded{key.accuracy, 1, net::AlltoallAlgo::kPairwise, false,
                    0, 1, {}, {}, {}};
  Candidate coded = uncoded;
  coded.coding = "4+1";

  TuneOptions clean;  // loss_rate = 0: retries are genuinely free
  const double clean_uncoded =
      score_candidate(key, uncoded, clean).total_seconds();
  const double clean_coded =
      score_candidate(key, coded, clean).total_seconds();
  EXPECT_LT(clean_uncoded, clean_coded);

  TuneOptions lossy;
  lossy.loss_rate = 0.05;
  const double lossy_uncoded =
      score_candidate(key, uncoded, lossy).total_seconds();
  const double lossy_coded =
      score_candidate(key, coded, lossy).total_seconds();
  EXPECT_LT(lossy_coded, lossy_uncoded);

  // The loss term only ever ADDS cost: both candidates price no cheaper
  // on the lossy link than on the clean one.
  EXPECT_GE(lossy_uncoded, clean_uncoded);
  EXPECT_GE(lossy_coded, clean_coded);
}

TEST(Autotune, LossyLinkSelectsCodedCleanLinkDoesNot) {
  // End-to-end through the full sweep: the winner carries coding exactly
  // when the configured loss rate makes retransmit pricing dominate.
  const TuneKey key{1 << 16, 8, win::Accuracy::kLow};
  const auto clean = autotune(key);
  EXPECT_TRUE(clean.best.candidate.coding.empty())
      << clean.best.candidate.describe();
  TuneOptions opts;
  opts.loss_rate = 0.05;
  const auto lossy = autotune(key, opts);
  EXPECT_EQ(lossy.best.candidate.coding, "4+1")
      << lossy.best.candidate.describe();
}

TEST(Autotune, PriorsReorderButNeverPrune) {
  const TuneKey key{1 << 16, 8, win::Accuracy::kLow};
  auto plain = candidate_space(key);

  // A comm-bound neighbour (same ranks/acc, nearby n): > 40% of its stage
  // time in halo + exchange promotes overlapping/chunked candidates.
  WisdomStore priors;
  auto neighbour = demo_config();
  neighbour.stage_seconds = {{"halo", 1.0e-4}, {"conv", 2.0e-4},
                            {"f_p", 1.0e-4},  {"exchange", 6.0e-4},
                            {"unpack", 5.0e-5}, {"f_mprime", 1.0e-4},
                            {"demod", 5.0e-5}};
  priors.put(TuneKey{1 << 15, 8, win::Accuracy::kLow}, neighbour);

  auto ordered = plain;
  order_candidates_with_priors(ordered, key, priors);
  ASSERT_EQ(ordered.size(), plain.size());  // no pruning
  // Same multiset of candidates, overlap/chunked first.
  auto sorted_a = plain, sorted_b = ordered;
  auto lt = [](const Candidate& x, const Candidate& y) {
    return x.describe() < y.describe();
  };
  std::sort(sorted_a.begin(), sorted_a.end(), lt);
  std::sort(sorted_b.begin(), sorted_b.end(), lt);
  EXPECT_TRUE(std::equal(sorted_a.begin(), sorted_a.end(), sorted_b.begin()));
  EXPECT_TRUE(ordered.front().overlap || ordered.front().chunk_depth > 1);
  bool seen_plain = false;
  for (const auto& c : ordered) {
    const bool promoted = c.overlap || c.chunk_depth > 1;
    if (!promoted) seen_plain = true;
    EXPECT_FALSE(seen_plain && promoted)
        << "promoted candidate after a plain one: " << c.describe();
  }

  // A compute-bound neighbour must leave the order untouched.
  WisdomStore cold;
  auto compute_bound = demo_config();
  compute_bound.stage_seconds = {{"halo", 1.0e-6}, {"conv", 9.0e-4},
                                 {"exchange", 1.0e-5}};
  cold.put(TuneKey{1 << 15, 8, win::Accuracy::kLow}, compute_bound);
  auto untouched = plain;
  order_candidates_with_priors(untouched, key, cold);
  EXPECT_TRUE(std::equal(plain.begin(), plain.end(), untouched.begin()));

  // Wrong ranks / no stage data: also untouched.
  WisdomStore other_ranks;
  other_ranks.put(TuneKey{1 << 15, 4, win::Accuracy::kLow}, neighbour);
  auto untouched2 = plain;
  order_candidates_with_priors(untouched2, key, other_ranks);
  EXPECT_TRUE(std::equal(plain.begin(), plain.end(), untouched2.begin()));
}

TEST(Autotune, MeasuredTunerRecordsStagePriors) {
  // The measured tuner must write per-stage seconds into the wisdom entry
  // (the priors of later sweeps); the modeled tuner records none.
  const TuneKey key{1 << 14, 2, win::Accuracy::kLow};
  TuneOptions opts;
  opts.mode = TuneMode::kMeasured;
  opts.reps = 1;
  opts.max_segments_per_rank = 1;
  WisdomStore wisdom;
  const auto cfg = tuned_config(key, wisdom, opts);
  ASSERT_FALSE(cfg.stage_seconds.empty());
  bool saw_conv = false;
  for (const auto& [name, sec] : cfg.stage_seconds) {
    EXPECT_GE(sec, 0.0) << name;
    saw_conv |= name == "conv";
  }
  EXPECT_TRUE(saw_conv);
  // Round-trips through the v3 file format.
  const auto reparsed = WisdomStore::parse(wisdom.serialize());
  ASSERT_TRUE(reparsed.find(key).has_value());
  EXPECT_EQ(reparsed.find(key)->stage_seconds.size(),
            cfg.stage_seconds.size());

  WisdomStore modeled;
  const auto mcfg = tuned_config(key, modeled, {});
  EXPECT_TRUE(mcfg.stage_seconds.empty());
}

TEST(Autotune, ChunkedOverlapNeverPricedSlowerThanUnchunked) {
  // The modeled cost of an overlapping candidate must be monotonically
  // non-increasing in chunk depth: the pipelined exchange hides pieces
  // behind downstream compute, never adds exposed time.
  const TuneKey key{1 << 18, 8, win::Accuracy::kLow};
  Candidate cand{key.accuracy, 4, net::AlltoallAlgo::kPairwise, true, 0, 1,
                 {}, {}, {}};
  const double base = score_candidate(key, cand).total_seconds();
  for (const std::int64_t cd : {std::int64_t{2}, std::int64_t{4}}) {
    cand.chunk_depth = cd;
    EXPECT_LE(score_candidate(key, cand).total_seconds(), base)
        << "cd=" << cd;
  }
}

TEST(Autotune, TwoLevelSchedulePricedFasterThanFlatPairwise) {
  // The modeled scorer prices the hierarchical schedule's fewer expensive
  // rounds — (G-1) cheap intra + (Q-1) inter vs the flat pairwise R-1 —
  // plus the intra-tier volume discount, so on any latency-bearing fabric
  // the two-level candidate must come out strictly cheaper than the same
  // candidate on the flat schedule.
  const TuneKey key{1 << 18, 8, win::Accuracy::kLow};
  Candidate flat{key.accuracy, 4, net::AlltoallAlgo::kPairwise, true, 0, 2,
                 {}, {}, {}};
  Candidate staged = flat;
  staged.topology = "two-level:2";
  EXPECT_LT(score_candidate(key, staged).total_seconds(),
            score_candidate(key, flat).total_seconds());
  // The torus schedule pays store-and-forward volume, so it only wins
  // where latency dominates: on a high-latency fabric its sum(k_d - 1)
  // neighbour rounds beat the flat pairwise R-1; on the default
  // bandwidth-rich fat tree it must NOT be picked over flat.
  Candidate torus = flat;
  torus.topology = "torus:2x2x2";
  EXPECT_GE(score_candidate(key, torus).total_seconds(),
            score_candidate(key, staged).total_seconds());
  const net::FatTreeModel slow_fabric({40.0, 200e-6});
  TuneOptions opts;
  opts.fabric = &slow_fabric;
  const TuneKey small{1 << 14, 8, win::Accuracy::kLow};
  Candidate small_flat{small.accuracy, 1, net::AlltoallAlgo::kPairwise,
                       false, 0, 1, {}, {}, {}};
  Candidate small_torus = small_flat;
  small_torus.topology = "torus:2x2x2";
  EXPECT_LT(score_candidate(small, small_torus, opts).total_seconds(),
            score_candidate(small, small_flat, opts).total_seconds());
}

TEST(Autotune, TunedConfigCachesInWisdom) {
  const TuneKey key{1 << 14, 4, win::Accuracy::kLow};
  WisdomStore wisdom;
  bool was_hit = true;
  const auto first = tuned_config(key, wisdom, {}, &was_hit);
  EXPECT_FALSE(was_hit);  // miss: sweep ran and populated the store
  EXPECT_EQ(wisdom.size(), 1u);
  const auto second = tuned_config(key, wisdom, {}, &was_hit);
  EXPECT_TRUE(was_hit);  // hit: no re-tuning
  EXPECT_EQ(first.candidate, second.candidate);
}

TEST(Autotune, BackendSelectionStampsEveryCandidate) {
  // TuneOptions::transport propagates onto every scored candidate, so the
  // winner lands in wisdom carrying the transport it was priced for.
  const TuneKey key{1 << 16, 8, win::Accuracy::kLow};
  TuneOptions opts;
  opts.transport = "shm";
  const auto result = autotune(key, opts);
  EXPECT_EQ(result.best.candidate.transport, "shm");
  for (const auto& sc : result.scores) {
    EXPECT_EQ(sc.candidate.transport, "shm");
  }
}

TEST(Autotune, ShmTransportPricedOnNodeLocalFabric) {
  // Without an explicit fabric, candidates pinned to the single-node shm
  // transport are priced on the node-local memory fabric, which must make
  // the exchange cheaper than the default cluster fat tree.
  const TuneKey key{1 << 18, 8, win::Accuracy::kLow};
  Candidate cluster{key.accuracy, 2, net::AlltoallAlgo::kPairwise, false,
                    0, 1, {}, {}, {}};
  Candidate local = cluster;
  local.transport = "shm";
  const auto cluster_score = score_candidate(key, cluster);
  const auto local_score = score_candidate(key, local);
  EXPECT_LT(local_score.comm_seconds, cluster_score.comm_seconds);
  EXPECT_DOUBLE_EQ(local_score.compute_seconds, cluster_score.compute_seconds);
  // An explicit fabric overrides the transport heuristic: both candidates
  // must price their exchange identically on it.
  const net::FatTreeModel fabric({40.0, 5e-6});
  TuneOptions opts;
  opts.fabric = &fabric;
  EXPECT_DOUBLE_EQ(score_candidate(key, local, opts).comm_seconds,
                   score_candidate(key, cluster, opts).comm_seconds);
}

TEST(Autotune, RepGatingByStagePriorsKeepsWinnerAndGatesFarCandidates) {
  // Rep gating: with a stage-prior neighbour in wisdom, candidates the
  // calibrated modeled scorer prices far off the front get ONE measured
  // rep instead of the full budget. Per-stage minima can only stay >=
  // with fewer reps, so the winner must be identical to the ungated
  // sweep — only the measurement budget shrinks.
  //
  // Wall-clock minima of ~1 ms candidates are decided by scheduler noise,
  // even between two UNGATED sweeps, so the sweeps here read a
  // deterministic stage-cost oracle: every stage costs a fixed share of
  // the candidate's modeled compute times a per-(candidate, stage, rep)
  // jitter in [1, 1.3). Best-of-reps then behaves like a measurement
  // (more reps, lower minima) and every sweep sees the same numbers.
  const auto stage_cost = [](const TuneKey& k, const Candidate& c,
                             std::string_view stage, int rep) {
    const double modeled = score_candidate(k, c).compute_seconds;
    const std::size_t h = std::hash<std::string>{}(
        c.describe() + "/" + std::string(stage) + "/" + std::to_string(rep));
    return 0.25 * modeled * (1.0 + 0.3 * static_cast<double>(h % 1000) / 1e3);
  };
  const TuneKey neighbour{1 << 13, 2, win::Accuracy::kLow};
  TuneOptions seed_opts;
  seed_opts.mode = TuneMode::kMeasured;
  seed_opts.reps = 1;
  seed_opts.max_segments_per_rank = 2;
  seed_opts.stage_cost = stage_cost;
  WisdomStore wisdom;
  (void)tuned_config(neighbour, wisdom, seed_opts);
  ASSERT_FALSE(wisdom.find(neighbour)->stage_seconds.empty());

  const TuneKey key{1 << 14, 2, win::Accuracy::kLow};
  TuneOptions opts;
  opts.mode = TuneMode::kMeasured;
  opts.reps = 2;
  opts.max_segments_per_rank = 2;
  opts.priors = &wisdom;
  opts.rep_gate_factor = 1.5;
  opts.stage_cost = stage_cost;
  // A high-latency fabric spreads the modeled totals (direct and
  // non-overlapped schedules pay extra latency), so the gate has far-off
  // candidates to demote.
  const net::FatTreeModel slow_fabric({40.0, 200e-6});
  opts.fabric = &slow_fabric;

  opts.rep_gating = false;
  const TuneResult ungated = autotune(key, opts);
  EXPECT_EQ(ungated.gated_candidates, 0);

  opts.rep_gating = true;
  const TuneResult gated = autotune(key, opts);
  // The demoted set is nonempty (the window-tier spread alone prices the
  // full tier far above the low-tier front) but never everything — the
  // modeled front itself always keeps the full budget.
  EXPECT_GT(gated.gated_candidates, 0);
  EXPECT_LT(gated.gated_candidates,
            static_cast<int>(gated.scores.size()));
  EXPECT_EQ(gated.scores.size(), ungated.scores.size());
  // Identical winners on every axis, and the winning totals agree: a
  // gate that demoted the true front would show up as a different winner
  // with a materially different best time.
  EXPECT_EQ(gated.best.candidate, ungated.best.candidate)
      << "gated winner " << gated.best.candidate.describe()
      << " vs ungated winner " << ungated.best.candidate.describe();
  EXPECT_NEAR(gated.best.total_seconds(), ungated.best.total_seconds(),
              0.05 * ungated.best.total_seconds());

  // Without priors the gate never arms: every candidate keeps its reps.
  TuneOptions no_priors = opts;
  no_priors.priors = nullptr;
  EXPECT_EQ(autotune(key, no_priors).gated_candidates, 0);
}

TEST(Autotune, MeasuredModeRejectsCrossProcessTransport) {
  // Measured scoring runs the rank team in-process and reads results from
  // captured memory; a cross-process transport cannot do that and must be
  // rejected with a typed error, not measured as garbage.
  const TuneKey key{1 << 14, 4, win::Accuracy::kLow};
  TuneOptions opts;
  opts.mode = TuneMode::kMeasured;
  opts.reps = 1;
  opts.transport = "shm";
  try {
    (void)autotune(key, opts);
    FAIL() << "measured autotune over a cross-process transport must throw";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("shm"), std::string::npos)
        << e.what();
  }
}

// --- strict number parsing on every text surface ---------------------------

/// `text` with junk appended to the value that follows `key` (the value
/// ends at the next blank, newline or end of text).
std::string with_junk(std::string text, const std::string& key) {
  const auto at = text.find(key);
  EXPECT_NE(at, std::string::npos) << key << " not in " << text;
  const auto end = text.find_first_of(" \n", at + key.size());
  text.insert(end == std::string::npos ? text.size() : end, "x");
  return text;
}

TEST(StrictParsers, MalformedNumbersThrowAndValidTextRoundTrips) {
  // Every parser that reads numbers from text goes through
  // common/parse.hpp. Each row names a surface, an input and whether it is
  // valid: a valid input must come back unchanged through the surface's
  // own writer, a malformed one must throw soi::Error (never a std::
  // exception, never a silent partial parse).
  using Reparse = std::function<std::string(const std::string&)>;
  const std::map<std::string, Reparse> surfaces = {
      {"int",
       [](const std::string& t) { return std::to_string(parse_int(t, "t")); }},
      {"int32",
       [](const std::string& t) {
         return std::to_string(parse_int(t, "t",
                                         std::numeric_limits<int>::min(),
                                         std::numeric_limits<int>::max()));
       }},
      {"double",
       [](const std::string& t) {
         std::ostringstream os;
         os.precision(17);
         os << parse_double(t, "t");
         return os.str();
       }},
      {"tune_key", [](const std::string& t) { return parse_tune_key(t).str(); }},
      {"candidate",
       [](const std::string& t) { return parse_candidate(t).describe(); }},
      {"topology",
       [](const std::string& t) { return net::Topology::parse(t, 8).str(); }},
      {"fault_spec",
       [](const std::string& t) { return net::FaultSpec::parse(t).str(); }},
      {"profile",
       [](const std::string& t) {
         return win::serialize_profile(win::parse_profile(t));
       }},
      {"wisdom",
       [](const std::string& t) { return WisdomStore::parse(t).serialize(); }},
  };

  const std::string profile =
      win::serialize_profile(win::make_profile(win::Accuracy::kLow));
  WisdomStore store;
  TunedConfig staged = demo_config();
  staged.stage_seconds = {{"halo", 0.25}, {"conv", 0.5}};
  store.put(TuneKey{1 << 14, 4, win::Accuracy::kLow}, staged);
  const std::string wisdom = store.serialize();

  struct Row {
    const char* surface;
    std::string text;
    bool valid;
  };
  const std::vector<Row> rows = {
      {"int", "0", true},
      {"int", "-7", true},
      {"int", "9223372036854775807", true},
      {"int", "", false},
      {"int", "4096x", false},
      {"int", " 12", false},
      {"int", "12 ", false},
      {"int", "+5", false},
      {"int", "1.5", false},
      {"int", "0x10", false},
      {"int", "99999999999999999999", false},
      {"int32", "2147483647", true},
      {"int32", "-2147483648", true},
      {"int32", "2147483648", false},
      {"int32", "4294967300", false},
      {"double", "0.25", true},
      {"double", "-3", true},
      {"double", "6.103515625e-05", true},
      {"double", "", false},
      {"double", "0.25x", false},
      {"double", "nan", false},
      {"double", "inf", false},
      {"double", "1e999", false},
      {"double", " 1", false},
      {"tune_key", "n=65536 ranks=8 acc=full", true},
      {"tune_key", "n=4096x ranks=8 acc=full", false},
      {"tune_key", "n=abc ranks=8 acc=full", false},
      {"tune_key", "n=99999999999999999999 ranks=8 acc=full", false},
      {"tune_key", "n=65536 ranks=8x acc=full", false},
      {"tune_key", "n=65536 ranks=99999999999 acc=full", false},
      {"tune_key", "n=65536 ranks=-4294967295 acc=full", false},
      {"candidate", "tier=full spr=2 algo=direct overlap=1 bw=0 cd=1", true},
      {"candidate",
       "tier=low spr=4 algo=pairwise overlap=1 bw=0 cd=2 topo=two-level:2 "
       "transport=shm code=4+1",
       true},
      {"candidate", "tier=full spr=2x algo=direct overlap=1 bw=0 cd=1", false},
      {"candidate", "tier=full spr=x algo=direct overlap=1 bw=0 cd=1", false},
      {"candidate", "tier=full spr=2 algo=direct overlap=banana bw=0 cd=1",
       false},
      {"candidate", "tier=full spr=2 algo=direct overlap=2 bw=0 cd=1", false},
      {"candidate", "tier=full spr=2 algo=direct overlap=1 bw=8.5 cd=1",
       false},
      {"candidate", "tier=full spr=2 algo=direct overlap=1 bw=0 cd=", false},
      {"topology", "two-level:2", true},
      {"topology", "torus:4x2x1", true},
      {"topology", "two-level:2x", false},
      {"topology", "two-level:abc", false},
      {"topology", "two-level:99999999999", false},
      {"topology", "torus:2x2", false},
      {"topology", "torus:2x2x2x1", false},
      {"topology", "torus:2x2x2 ", false},
      {"fault_spec", "42:drop:0.25,corrupt:0.5,stall:2:35", true},
      {"fault_spec", "42x:drop:0.25", false},
      {"fault_spec", "42:drop:0.25x", false},
      {"fault_spec", "1.5:drop:0.25", false},
      {"fault_spec", "-1:drop:0.25", false},
      {"fault_spec", "42:stall:2x:35", false},
      {"profile", profile, true},
      {"profile", with_junk(profile, "mu="), false},
      {"profile", with_junk(profile, "snr="), false},
      {"profile", with_junk(profile, "window="), false},
      {"wisdom", wisdom, true},
      {"wisdom", with_junk(wisdom, "score="), false},
      {"wisdom", with_junk(wisdom, "n="), false},
      {"wisdom", with_junk(wisdom, "spr="), false},
      {"wisdom", with_junk(wisdom, "stages="), false},
  };
  for (const Row& row : rows) {
    const Reparse& reparse = surfaces.at(row.surface);
    if (row.valid) {
      EXPECT_EQ(reparse(row.text), row.text) << row.surface;
    } else {
      EXPECT_THROW((void)reparse(row.text), Error)
          << row.surface << ": '" << row.text << "'";
    }
  }
}

}  // namespace
}  // namespace soi::tune
