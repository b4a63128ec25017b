// Shared plumbing of the soibench program: argument parsing, exact
// percentiles, the result report, memory shared with forked rank
// processes, and the in-memory span tracer.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Directory the traced run writes its span file into.
  std::string out_dir = ".";
};

/// Strict parser: every flag is required once, unknown flags are errors.
Args parse_args(int argc, char** argv);

/// Seconds on the monotonic clock shared by every process of the machine
/// (steady_clock), so forked ranks and the parent agree on instants.
double now_s();

/// Exact quantile q in [0, 1] of the samples, linear interpolation between
/// closest ranks. Returns 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// Peak resident set of the calling process, MiB.
double peak_rss_mb();

/// SNR in dB from accumulated ||ref||^2 and ||got - ref||^2.
double snr_from_energies(double ref_energy, double err_energy);

/// One metric line of the final JSON object.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 1;
};

/// The benchmark's result: metrics plus the output-check tallies. print()
/// writes one human-readable line per metric (name, value, unit, sample
/// count) and then the single JSON object as the last stdout line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::int64_t samples = 1);
  /// Count `n` checked operations, `bad` of which failed their check.
  void count(std::int64_t n, std::int64_t bad) {
    attempted_ += n;
    failed_ += bad;
  }
  [[nodiscard]] double get(const std::string& name) const;
  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }
  /// Keep only the named metrics, in the given order; a missing name is an
  /// error (every declared metric must be measured).
  void select(const std::vector<std::string>& names);
  void print(bool correct) const;

 private:
  std::vector<Metric> metrics_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// mmap/munmap of anonymous MAP_SHARED memory (throws on failure).
void* shared_map(std::size_t bytes);
void shared_unmap(void* p, std::size_t bytes);

/// Anonymous MAP_SHARED memory: writes made by forked rank processes are
/// visible to the parent. Trivially copyable element types only.
template <class T>
class SharedArray {
 public:
  explicit SharedArray(std::size_t n);
  ~SharedArray();
  SharedArray(const SharedArray&) = delete;
  SharedArray& operator=(const SharedArray&) = delete;
  T* data() { return data_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] std::size_t size() const { return n_; }

 private:
  T* data_ = nullptr;
  std::size_t n_ = 0;
};

template <class T>
SharedArray<T>::SharedArray(std::size_t n)
    : data_(static_cast<T*>(shared_map(n * sizeof(T)))), n_(n) {
  for (std::size_t i = 0; i < n; ++i) new (data_ + i) T{};
}

template <class T>
SharedArray<T>::~SharedArray() {
  shared_unmap(data_, n_ * sizeof(T));
}

/// One recorded span. `name` points at a string literal (valid in every
/// forked process); `parent` is the index of the enclosing span or -1.
struct Span {
  const char* name = nullptr;
  std::int64_t parent = -1;
  std::int64_t request = -1;
  std::int32_t pid = 0;
  std::int32_t tid = 0;
  double start = 0.0;
  double end = 0.0;
};

/// Fixed-capacity span log in shared memory: rank processes and client
/// threads append without locks or allocation; spans past the capacity
/// are not recorded. Disabled tracers record nothing.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity);
  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Open a span (child of the calling thread's open span); returns its
  /// index, or -1 when disabled or full.
  std::int64_t begin(const char* name, std::int64_t request = -1);
  /// Open a span with explicit start time and parent (spans that begin
  /// before the thread that closes them, e.g. a request's due time).
  std::int64_t begin_at(const char* name, double start, std::int64_t parent,
                        std::int64_t request);
  void end(std::int64_t idx);
  [[nodiscard]] std::int64_t recorded() const;
  /// Write every span as Chrome trace-event JSON ("X" events, microsecond
  /// timestamps relative to the earliest span).
  void write_chrome_json(const std::string& path) const;

 private:
  SharedArray<std::atomic<std::int64_t>> next_;  // next free span index
  SharedArray<Span> spans_;
  bool enabled_ = false;
};

/// RAII span on a tracer (no-op when the tracer is disabled).
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, std::int64_t request = -1)
      : t_(t), idx_(t.begin(name, request)) {}
  ~ScopedSpan() { t_.end(idx_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  std::int64_t idx_;
};

/// Deterministic Gaussian test signal derived from the run seed.
soi::cvec make_signal(std::int64_t n, std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench
