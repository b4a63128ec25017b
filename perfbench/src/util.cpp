#include "util.hpp"

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

#include "common/rng.hpp"

namespace perfbench {

Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --flag value pairs, got '" + flag +
                                  "'");
    }
    if (!kv.emplace(flag.substr(2), argv[i + 1]).second) {
      throw std::invalid_argument("flag given twice: " + flag);
    }
    ++i;
  }
  Args a;
  auto take = [&](const char* name) {
    const auto it = kv.find(name);
    if (it == kv.end()) {
      throw std::invalid_argument(std::string("missing --") + name);
    }
    std::string v = it->second;
    kv.erase(it);
    return v;
  };
  auto to_number = [](const std::string& s, const char* name) {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    if (used != s.size() || !std::isfinite(v)) {
      throw std::invalid_argument(std::string("--") + name +
                                  ": not a number: '" + s + "'");
    }
    return v;
  };
  a.workload = take("workload");
  const double seed = to_number(take("seed"), "seed");
  if (seed < 0 || seed != std::floor(seed)) {
    throw std::invalid_argument("--seed must be a whole number >= 0");
  }
  a.seed = static_cast<std::uint64_t>(seed);
  a.seconds = to_number(take("seconds"), "seconds");
  if (a.seconds <= 0 || a.seconds > 120) {
    throw std::invalid_argument("--seconds must be in (0, 120]");
  }
  const std::string trace = take("trace");
  if (trace != "0" && trace != "1") {
    throw std::invalid_argument("--trace must be 0 or 1");
  }
  a.trace = trace == "1";
  if (kv.count("out-dir") != 0) a.out_dir = take("out-dir");
  if (!kv.empty()) {
    throw std::invalid_argument("unknown flag --" + kv.begin()->first);
  }
  return a;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double snr_from_energies(double ref_energy, double err_energy) {
  if (err_energy <= 0.0) return 1e9;  // exact match (stats.hpp convention)
  return 10.0 * std::log10(ref_energy / err_energy);
}

void Report::add(const std::string& name, double value,
                 const std::string& unit, std::int64_t samples) {
  for (auto& m : metrics_) {
    if (m.name == name) {
      m = Metric{name, value, unit, samples};
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit, samples});
}

double Report::get(const std::string& name) const {
  for (const auto& m : metrics_) {
    if (m.name == name) return m.value;
  }
  throw std::logic_error("metric not measured: " + name);
}

void Report::select(const std::vector<std::string>& names) {
  std::vector<Metric> kept;
  for (const auto& n : names) {
    const auto it = std::find_if(metrics_.begin(), metrics_.end(),
                                 [&](const Metric& m) { return m.name == n; });
    if (it == metrics_.end()) {
      throw std::logic_error("metric not measured: " + n);
    }
    kept.push_back(*it);
  }
  metrics_ = std::move(kept);
}

void Report::print(bool correct) const {
  for (const auto& m : metrics_) {
    std::printf("%-28s %16.6f %-8s samples=%lld\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& m = metrics_[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void* shared_map(std::size_t bytes) {
  void* p = ::mmap(nullptr, std::max<std::size_t>(bytes, 1),
                   PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::runtime_error("shared mmap failed");
  return p;
}

void shared_unmap(void* p, std::size_t bytes) {
  ::munmap(p, std::max<std::size_t>(bytes, 1));
}

namespace {
thread_local std::int64_t t_open_span = -1;
std::atomic<std::int32_t> g_next_tid{0};
thread_local std::int32_t t_tid = -1;

std::int32_t this_tid() {
  if (t_tid < 0) t_tid = g_next_tid.fetch_add(1);
  return t_tid;
}
}  // namespace

Tracer::Tracer(std::size_t capacity) : next_(1), spans_(capacity) {}

std::int64_t Tracer::begin(const char* name, std::int64_t request) {
  if (!enabled_) return -1;
  const std::int64_t idx = begin_at(name, now_s(), t_open_span, request);
  if (idx >= 0) t_open_span = idx;
  return idx;
}

std::int64_t Tracer::begin_at(const char* name, double start,
                              std::int64_t parent, std::int64_t request) {
  if (!enabled_) return -1;
  const std::int64_t idx = next_[0].fetch_add(1);
  if (idx >= static_cast<std::int64_t>(spans_.size())) return -1;
  Span& s = spans_[static_cast<std::size_t>(idx)];
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.pid = static_cast<std::int32_t>(::getpid());
  s.tid = this_tid();
  s.start = start;
  s.end = start;
  return idx;
}

void Tracer::end(std::int64_t idx) {
  if (idx < 0) return;
  Span& s = spans_[static_cast<std::size_t>(idx)];
  s.end = now_s();
  if (t_open_span == idx) t_open_span = s.parent;
}

std::int64_t Tracer::recorded() const {
  return std::min<std::int64_t>(next_[0].load(),
                                static_cast<std::int64_t>(spans_.size()));
}

void Tracer::write_chrome_json(const std::string& path) const {
  const std::int64_t n = recorded();
  double t0 = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const double s = spans_[static_cast<std::size_t>(i)].start;
    if (i == 0 || s < t0) t0 = s;
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"traceEvents\": [\n";
  for (std::int64_t i = 0; i < n; ++i) {
    const Span& s = spans_[static_cast<std::size_t>(i)];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \""
        << (s.name != nullptr ? s.name : "?") << "\", \"ph\": \"X\", \"pid\": "
        << s.pid << ", \"tid\": " << s.tid
        << ", \"ts\": " << (s.start - t0) * 1e6
        << ", \"dur\": " << (s.end - s.start) * 1e6
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}}";
  }
  out << "\n]}\n";
}

soi::cvec make_signal(std::int64_t n, std::uint64_t seed, std::uint64_t salt) {
  soi::cvec x(static_cast<std::size_t>(n));
  soi::fill_gaussian(x, seed * 0x9E3779B97F4A7C15ull + salt);
  return x;
}

}  // namespace perfbench
