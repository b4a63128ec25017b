// Thread-safe, LRU-evicting registry of constructed plan artifacts.
//
// Constructing an SOI plan is far more expensive than executing one
// transform with it: the profile design search samples windows densely,
// and the convolution table evaluates mu * B * P window points. A service
// that transforms many signals of a few recurring shapes should pay those
// costs once per shape, not once per call — the registry memoises
//
//   * accuracy-preset profiles        (the Section 4 design search),
//   * convolution tables              (shared by ALL ranks of a
//                                      distributed plan: the R per-rank
//                                      tables of one SoiFftDist world are
//                                      identical, so R threads asking for
//                                      the same key build exactly one),
//   * whole serial plans              (construction — window design,
//                                      tables, FFT planning — is the
//                                      expensive part; sharing amortises
//                                      it. forward() runs through the
//                                      plan's own preplanned workspace, so
//                                      concurrent forward() calls on ONE
//                                      shared instance are not supported —
//                                      but the stage chain is stateless:
//                                      callers that need parallel
//                                      execution of one shared plan give
//                                      each thread its own exec::ExecState
//                                      via init_state()/forward_on(), the
//                                      serving layer's pattern).
//
// Concurrency contract: lookups of the same key from any number of
// threads construct the value exactly once; the non-constructing threads
// block until it is ready. Construction happens outside the registry
// lock, so slow builds of different keys proceed in parallel.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "soi/conv_table.hpp"
#include "soi/serial.hpp"
#include "window/design.hpp"

namespace soi::tune {

class PlanRegistry {
 public:
  /// `capacity`: maximum resident entries; least-recently-used completed
  /// entries are evicted first (handed-out shared_ptrs stay valid — the
  /// registry only drops its own reference).
  explicit PlanRegistry(std::size_t capacity = 64);

  /// Accuracy-preset profile (make_profile) — cached design search.
  std::shared_ptr<const win::SoiProfile> profile(win::Accuracy acc);

  /// Convolution table for the (n, p, profile) geometry.
  std::shared_ptr<const core::ConvTable> conv_table(
      std::int64_t n, std::int64_t p, const win::SoiProfile& prof);

  /// Complete serial plan for (n, p, profile).
  std::shared_ptr<const core::SoiFftSerial> serial_plan(
      std::int64_t n, std::int64_t p, const win::SoiProfile& prof);

  /// Generic memoisation used by the typed getters: returns the cached
  /// value for `key` or runs `build` (exactly once per key, outside the
  /// registry lock). A throwing build is not cached; the exception
  /// propagates to every waiter of that construction.
  template <class T>
  std::shared_ptr<const T> get_or_build(
      const std::string& key,
      const std::function<std::shared_ptr<const T>()>& build) {
    return std::static_pointer_cast<const T>(get_or_build_erased(
        key, [&build]() -> std::shared_ptr<const void> { return build(); }));
  }

  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;     ///< == number of constructions started
    std::int64_t evictions = 0;
    std::size_t size = 0;        ///< resident entries right now
  };
  [[nodiscard]] Stats stats() const;

  /// Drop every entry (handed-out pointers stay valid).
  void clear();

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Process-wide instance used by the CLI, examples and benches.
  static PlanRegistry& global();

 private:
  std::shared_ptr<const void> get_or_build_erased(
      const std::string& key,
      const std::function<std::shared_ptr<const void>()>& build);
  void evict_lru_locked();

  struct Entry {
    std::shared_future<std::shared_ptr<const void>> value;
    std::uint64_t last_use = 0;
  };

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::uint64_t tick_ = 0;
  Stats stats_;
  std::unordered_map<std::string, Entry> entries_;
};

/// Registry cache key of a profile: every field that changes the numerics
/// (window family/parameters via serialisation when supported, otherwise
/// name + design numbers).
std::string profile_cache_key(const win::SoiProfile& prof);

}  // namespace soi::tune
