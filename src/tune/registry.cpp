#include "tune/registry.hpp"

#include <chrono>
#include <sstream>

#include "common/error.hpp"
#include "tune/candidates.hpp"

namespace soi::tune {

PlanRegistry::PlanRegistry(std::size_t capacity) : capacity_(capacity) {
  SOI_CHECK(capacity_ >= 1, "PlanRegistry: capacity must be >= 1");
}

std::string profile_cache_key(const win::SoiProfile& prof) {
  try {
    return win::serialize_profile(prof);
  } catch (const Error&) {
    // Window family without a serial form (e.g. Kaiser-Bessel): fall back
    // to the design numbers, which pin the numerics for practical purposes.
    std::ostringstream os;
    os.precision(17);
    os << prof.name << ':' << prof.window->name() << ':' << prof.mu << ':'
       << prof.nu << ':' << prof.taps << ':' << prof.kappa << ':'
       << prof.eps_alias << ':' << prof.eps_trunc;
    return os.str();
  }
}

std::shared_ptr<const win::SoiProfile> PlanRegistry::profile(
    win::Accuracy acc) {
  return get_or_build<win::SoiProfile>(
      "profile:" + accuracy_name(acc), [acc] {
        return std::make_shared<const win::SoiProfile>(win::make_profile(acc));
      });
}

std::shared_ptr<const core::ConvTable> PlanRegistry::conv_table(
    std::int64_t n, std::int64_t p, const win::SoiProfile& prof) {
  std::ostringstream key;
  key << "table:n=" << n << ":p=" << p << ':' << profile_cache_key(prof);
  return get_or_build<core::ConvTable>(key.str(), [&] {
    const core::SoiGeometry geom(n, p, prof);
    return std::make_shared<const core::ConvTable>(geom, *prof.window);
  });
}

std::shared_ptr<const core::SoiFftSerial> PlanRegistry::serial_plan(
    std::int64_t n, std::int64_t p, const win::SoiProfile& prof) {
  std::ostringstream key;
  key << "serial:n=" << n << ":p=" << p << ':' << profile_cache_key(prof);
  return get_or_build<core::SoiFftSerial>(key.str(), [&] {
    return std::make_shared<const core::SoiFftSerial>(n, p, prof);
  });
}

std::shared_ptr<const void> PlanRegistry::get_or_build_erased(
    const std::string& key,
    const std::function<std::shared_ptr<const void>()>& build) {
  std::shared_future<std::shared_ptr<const void>> fut;
  std::shared_ptr<std::promise<std::shared_ptr<const void>>> my_promise;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      it->second.last_use = ++tick_;
      fut = it->second.value;
    } else {
      ++stats_.misses;
      while (entries_.size() >= capacity_) evict_lru_locked();
      my_promise =
          std::make_shared<std::promise<std::shared_ptr<const void>>>();
      Entry e;
      e.value = my_promise->get_future().share();
      e.last_use = ++tick_;
      fut = e.value;
      entries_.emplace(key, std::move(e));
    }
  }
  if (my_promise) {
    // This thread won the construction race; build outside the lock.
    try {
      my_promise->set_value(build());
    } catch (...) {
      my_promise->set_exception(std::current_exception());
      {
        // Do not cache failures: later lookups retry the build.
        std::lock_guard<std::mutex> lock(mu_);
        entries_.erase(key);
      }
      throw;
    }
  }
  return fut.get();
}

void PlanRegistry::evict_lru_locked() {
  // Prefer completed entries; an in-flight construction is only evicted if
  // nothing else is available (its waiters hold the future and finish fine).
  auto victim = entries_.end();
  bool victim_ready = false;
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    const bool ready = it->second.value.wait_for(std::chrono::seconds(0)) ==
                       std::future_status::ready;
    if (victim == entries_.end() ||
        (ready && !victim_ready) ||
        (ready == victim_ready &&
         it->second.last_use < victim->second.last_use)) {
      victim = it;
      victim_ready = ready;
    }
  }
  if (victim == entries_.end()) return;
  entries_.erase(victim);
  ++stats_.evictions;
}

PlanRegistry::Stats PlanRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.size = entries_.size();
  return s;
}

void PlanRegistry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

PlanRegistry& PlanRegistry::global() {
  static PlanRegistry instance;
  return instance;
}

}  // namespace soi::tune
