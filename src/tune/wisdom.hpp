// Wisdom: tuned plan decisions persisted across runs (FFTW's term for the
// same idea). A wisdom file is versioned, line-oriented text:
//
//   soiwisdom v6
//   # optional comments
//   <key> | <candidate> | <score> | <profile> [| <stages>]
//
// with <key> = TuneKey::str() ("n=65536 ranks=8 acc=full"), <candidate> =
// Candidate::describe() ("tier=full spr=2 algo=direct overlap=1 bw=0
// cd=1"), <score> = "score=<seconds>" (the tuner's winning estimate),
// <profile> = win::serialize_profile() of the winning tier's profile (so a
// reload skips the design search as well as the tuning sweep), and the
// optional <stages> = "stages=halo:1.2e-05,conv:3.4e-04,..." — the
// measured tuner's per-stage seconds of the winning run. Later sweeps read
// these back as PRIORS that reorder candidate evaluation (comm-bound
// shapes try overlapping/chunked candidates first); they never prune.
//
// v6 added the candidate's optional code (erasure-coded exchange, "k+r")
// field — emitted only for coded decisions, so uncoded lines are
// byte-identical to v5's. v5 added the candidate's optional transport /
// engine backend fields — emitted only for decisions pinned to a named
// backend, so unpinned lines are byte-identical to v4's. The engine field
// is no longer written; a legacy "engine=batch" reads as unpinned and any
// other engine is rejected. v4 added the candidate's optional topo (exchange topology) field — emitted only for
// non-flat schedules, so flat lines are byte-identical to v3's. v3 added
// the candidate's cd (chunk depth) field and the optional stages field.
// v2 added bw (SoA batch width). v1–v5 files are still READ (their
// candidates default to bw=0 / cd=1 / flat topology / unpinned backends /
// coding off); files are always WRITTEN at the current version.
//
// This subsumes the old single-line `--profile` files of tools/soifft:
// those stored only a window profile; wisdom stores the full tuned
// decision keyed by problem shape.
//
// A file whose first line is not an accepted version header is rejected
// with a clear error — never silently misparsed.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tune/candidates.hpp"
#include "window/design.hpp"

namespace soi::tune {

/// One tuned decision: the winning candidate, its profile (design-search
/// output) and the tuner's score for it. `stage_seconds` (may be empty)
/// carries the measured tuner's per-stage timings of the winning run, in
/// pipeline order — the priors later sweeps use to order their candidate
/// evaluation.
struct TunedConfig {
  Candidate candidate;
  win::SoiProfile profile;
  double score_seconds = 0.0;
  std::vector<std::pair<std::string, double>> stage_seconds;
};

/// In-memory wisdom collection with text (de)serialisation. Not
/// thread-safe; the thread-safe component of the subsystem is
/// PlanRegistry — guard shared WisdomStore access externally.
class WisdomStore {
 public:
  static constexpr const char* kHeader = "soiwisdom v6";
  /// Older headers still accepted by parse() (read-compat).
  static constexpr const char* kHeaderV5 = "soiwisdom v5";
  static constexpr const char* kHeaderV4 = "soiwisdom v4";
  static constexpr const char* kHeaderV3 = "soiwisdom v3";
  static constexpr const char* kHeaderV2 = "soiwisdom v2";
  static constexpr const char* kHeaderV1 = "soiwisdom v1";

  /// Insert or replace the decision for `key`.
  void put(const TuneKey& key, const TunedConfig& config);

  /// Look up a decision; nullopt when this shape was never tuned.
  [[nodiscard]] std::optional<TunedConfig> find(const TuneKey& key) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  /// All decisions, keyed by TuneKey::str() (the prior-ordering scan).
  [[nodiscard]] const std::map<std::string, TunedConfig>& entries() const {
    return entries_;
  }

  /// Full text form (header + one line per entry, key-sorted).
  [[nodiscard]] std::string serialize() const;

  /// Parse text produced by serialize() — current or any legacy (v1–v4)
  /// format. Throws soi::Error on a missing or unknown version header or
  /// any malformed line.
  static WisdomStore parse(const std::string& text);

  /// Write to / read from a file. load() throws soi::Error when the file
  /// cannot be opened or fails to parse.
  void save(const std::string& path) const;
  static WisdomStore load(const std::string& path);

  /// load() if `path` exists, otherwise an empty store (the tune
  /// subcommand's append-to-existing-file behaviour).
  static WisdomStore load_or_empty(const std::string& path);

 private:
  std::map<std::string, TunedConfig> entries_;  // keyed by TuneKey::str()
};

}  // namespace soi::tune
