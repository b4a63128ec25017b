#include "tune/wisdom.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace soi::tune {

void WisdomStore::put(const TuneKey& key, const TunedConfig& config) {
  SOI_CHECK(config.profile.window != nullptr,
            "WisdomStore::put: config has no window profile");
  entries_[key.str()] = config;
}

std::optional<TunedConfig> WisdomStore::find(const TuneKey& key) const {
  const auto it = entries_.find(key.str());
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::string WisdomStore::serialize() const {
  std::ostringstream os;
  os << kHeader << "\n";
  os << "# SOI-FFT tuned plan decisions — regenerate with `soifft tune`\n";
  os.precision(17);
  for (const auto& [key, cfg] : entries_) {
    os << key << " | " << cfg.candidate.describe() << " | score="
       << cfg.score_seconds << " | " << win::serialize_profile(cfg.profile);
    if (!cfg.stage_seconds.empty()) {
      os << " | stages=";
      bool first = true;
      for (const auto& [name, sec] : cfg.stage_seconds) {
        if (!first) os << ",";
        first = false;
        os << name << ":" << sec;
      }
    }
    os << "\n";
  }
  return os.str();
}

namespace {

/// Split a wisdom line on " | " into exactly `n` fields.
std::vector<std::string> split_fields(const std::string& line, std::size_t n) {
  std::vector<std::string> fields;
  std::size_t pos = 0;
  while (fields.size() + 1 < n) {
    const auto bar = line.find(" | ", pos);
    SOI_CHECK(bar != std::string::npos,
              "wisdom: malformed line '" << line << "'");
    fields.push_back(line.substr(pos, bar - pos));
    pos = bar + 3;
  }
  fields.push_back(line.substr(pos));
  return fields;
}

/// Parse "halo:1.2e-05,conv:3.4e-04,..." (the v3 stages field payload).
std::vector<std::pair<std::string, double>> parse_stage_seconds(
    const std::string& text, const std::string& line) {
  std::vector<std::pair<std::string, double>> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    auto comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(pos, comma - pos);
    const auto colon = item.find(':');
    SOI_CHECK(colon != std::string::npos && colon > 0,
              "wisdom: malformed stages field in '" << line << "'");
    out.emplace_back(item.substr(0, colon),
                     parse_double(item.substr(colon + 1), "wisdom: stages"));
    pos = comma + 1;
  }
  return out;
}

}  // namespace

WisdomStore WisdomStore::parse(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  SOI_CHECK(std::getline(is, line),
            "wisdom: empty input (expected header '" << kHeader << "')");
  if (!line.empty() && line.back() == '\r') line.pop_back();
  SOI_CHECK(line == kHeader || line == kHeaderV5 || line == kHeaderV4 ||
                line == kHeaderV3 || line == kHeaderV2 || line == kHeaderV1,
            "wisdom: version mismatch — expected header '"
                << kHeader << "' (or legacy '" << kHeaderV5 << "' / '"
                << kHeaderV4 << "' / '" << kHeaderV3 << "' / '" << kHeaderV2
                << "' / '" << kHeaderV1 << "'), got '" << line
                << "'; re-run `soifft tune` to regenerate");
  WisdomStore store;
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    const auto fields = split_fields(line, 4);
    const TuneKey key = parse_tune_key(fields[0]);
    TunedConfig cfg;
    cfg.candidate = parse_candidate(fields[1]);
    SOI_CHECK(fields[2].rfind("score=", 0) == 0,
              "wisdom: expected score field, got '" << fields[2] << "'");
    cfg.score_seconds = parse_double(fields[2].substr(6), "wisdom: score");
    // fields[3] holds the line's remainder: the profile, optionally
    // followed by the v3 " | stages=..." field.
    std::string profile_text = fields[3];
    const auto bar = profile_text.find(" | stages=");
    if (bar != std::string::npos) {
      cfg.stage_seconds = parse_stage_seconds(
          profile_text.substr(bar + 3 + 7), line);
      profile_text.resize(bar);
    }
    cfg.profile = win::parse_profile(profile_text);
    store.put(key, cfg);
  }
  return store;
}

void WisdomStore::save(const std::string& path) const {
  // Write-then-rename so readers (and concurrent servers sharing a
  // wisdom file) never observe a truncated store; rename(2) on the same
  // filesystem replaces the destination atomically.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc);
    SOI_CHECK(f.good(), "wisdom: cannot open '" << tmp << "' for writing");
    f << serialize();
    f.flush();
    SOI_CHECK(f.good(), "wisdom: write to '" << tmp << "' failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    SOI_CHECK(false, "wisdom: atomic rename to '" << path << "' failed");
  }
}

WisdomStore WisdomStore::load(const std::string& path) {
  std::ifstream f(path);
  SOI_CHECK(f.good(), "wisdom: cannot open '" << path << "'");
  std::ostringstream text;
  text << f.rdbuf();
  return parse(text.str());
}

WisdomStore WisdomStore::load_or_empty(const std::string& path) {
  std::ifstream f(path);
  if (!f.good()) return WisdomStore{};
  std::ostringstream text;
  text << f.rdbuf();
  return parse(text.str());
}

}  // namespace soi::tune
