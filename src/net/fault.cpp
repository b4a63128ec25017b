#include "net/fault.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace soi::net {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kDrop: return "drop";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kTruncate: return "truncate";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kStraggler: return "straggler";
  }
  return "?";
}

namespace {

bool kind_from_name(const std::string& name, FaultKind& out) {
  for (const FaultKind k :
       {FaultKind::kDrop, FaultKind::kCorrupt, FaultKind::kTruncate,
        FaultKind::kDuplicate, FaultKind::kDelay, FaultKind::kStraggler}) {
    if (name == fault_kind_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

// splitmix64: one well-mixed 64-bit draw per message coordinate tuple.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t draw(std::uint64_t seed, std::uint64_t salt, int src, int dst,
                   int tag, std::uint64_t seq) {
  std::uint64_t h = mix64(seed ^ (salt * 0xd1342543de82ef95ULL));
  h = mix64(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) |
                 (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst))
                  << 32)));
  h = mix64(h ^ static_cast<std::uint64_t>(static_cast<std::int64_t>(tag)));
  h = mix64(h ^ seq);
  return h;
}

double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // 2^53
}

}  // namespace

FaultSpec FaultSpec::parse(const std::string& text) {
  FaultSpec spec;
  if (text.empty()) return spec;
  const auto parts = split(text, ',');
  bool have_seed = false;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    auto fields = split(parts[i], ':');
    if (i == 0) {
      // Leading field of the first entry is the seed: seed:kind:rate
      // (or seed:stall:rank:ms).
      SOI_CHECK(fields.size() >= 3,
                "fault spec: first entry must be seed:kind:rate, got '"
                    << parts[i] << "'");
      spec.seed = static_cast<std::uint64_t>(parse_int(
          fields[0], "fault spec: seed", 0));
      have_seed = true;
      fields.erase(fields.begin());
    }
    if (fields.size() == 3 && fields[0] == "stall") {
      spec.stall_rank = static_cast<int>(parse_int(
          fields[1], "fault spec: stall rank", 0,
          std::numeric_limits<int>::max()));
      const double ms = parse_double(fields[2], "fault spec: stall ms");
      SOI_CHECK(ms >= 0.0, "fault spec: stall ms must be >= 0");
      spec.stall_ms = ms;
      continue;
    }
    SOI_CHECK(fields.size() == 2, "fault spec: entry '"
                                      << parts[i]
                                      << "' must be kind:rate (or "
                                         "stall:rank:ms)");
    FaultRule rule;
    SOI_CHECK(kind_from_name(fields[0], rule.kind),
              "fault spec: unknown kind '"
                  << fields[0]
                  << "' (drop, corrupt, truncate, duplicate, delay, "
                     "straggler, stall)");
    rule.rate = parse_double(fields[1], "fault spec: rate");
    SOI_CHECK(rule.rate >= 0.0 && rule.rate <= 1.0,
              "fault spec: rate " << rule.rate << " outside [0, 1]");
    spec.rules.push_back(rule);
  }
  SOI_CHECK(have_seed, "fault spec: missing seed");
  return spec;
}

std::string FaultSpec::str() const {
  if (!any()) return "";
  std::ostringstream os;
  os << seed;
  // The seed shares the first entry's colon group; later entries are
  // comma-separated per the grammar.
  for (std::size_t i = 0; i < rules.size(); ++i) {
    os << (i == 0 ? ':' : ',') << fault_kind_name(rules[i].kind) << ':'
       << rules[i].rate;
  }
  if (stall_rank >= 0) {
    os << (rules.empty() ? ':' : ',') << "stall:" << stall_rank << ':'
       << stall_ms;
  }
  return os.str();
}

FaultInjector::Action FaultInjector::decide(int src, int dst, int tag,
                                            std::uint64_t seq,
                                            std::size_t payload_bytes) const {
  Action a;
  for (std::size_t i = 0; i < spec_.rules.size(); ++i) {
    const FaultRule& r = spec_.rules[i];
    const std::uint64_t h = draw(spec_.seed, i + 1, src, dst, tag, seq);
    if (to_unit(h) >= r.rate) continue;
    switch (r.kind) {
      case FaultKind::kDrop:
        a.drop = true;
        break;
      case FaultKind::kCorrupt:
        if (payload_bytes > 0) {
          a.corrupt_bit = static_cast<std::int64_t>(
              mix64(h) % (payload_bytes * 8));
        }
        break;
      case FaultKind::kTruncate:
        a.truncate = true;
        break;
      case FaultKind::kDuplicate:
        a.duplicate = true;
        break;
      case FaultKind::kDelay:
        a.delay = true;
        break;
      case FaultKind::kStraggler: {
        // Heavy-tailed (Pareto, alpha = 1.5) extra one-way latency: scale
        // ~1 ms, capped at 200 ms so a single straggler can never outlive
        // the bounded-deadline retransmit machinery entirely. The draw is
        // a pure function of the message coordinates, like every rule.
        const double u = to_unit(mix64(h ^ 0x5354524147ULL));
        const double pareto =
            1.0 / std::pow(1.0 - u * 0.999999, 1.0 / 1.5) - 1.0;
        a.straggle_ms = std::clamp(1.0 * pareto, 0.05, 200.0);
        break;
      }
    }
  }
  return a;
}

// CRC32C (Castagnoli, poly 0x1edc6f41 reflected 0x82f63b78): the payload
// checksum sits on the critical path of every SimMPI message, which moves
// at memcpy speed — a byte-at-a-time loop would cost more than the
// transport itself. On SSE4.2 hosts the hardware CRC32 instruction folds
// 8 bytes/cycle; the table fallback computes the identical polynomial so
// wire checksums agree across dispatch tiers.
namespace {

std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0x82f63b78u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

std::uint32_t crc32c_table(const void* data, std::size_t bytes) {
  static const std::array<std::uint32_t, 256> kTable = make_crc32c_table();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < bytes; ++i) {
    c = kTable[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(
    const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t c = 0xffffffffu;
  while (bytes >= 8) {
    std::uint64_t word;
    __builtin_memcpy(&word, p, 8);
    c = __builtin_ia32_crc32di(c, word);
    p += 8;
    bytes -= 8;
  }
  while (bytes > 0) {
    c = __builtin_ia32_crc32qi(static_cast<std::uint32_t>(c), *p);
    ++p;
    --bytes;
  }
  return static_cast<std::uint32_t>(c) ^ 0xffffffffu;
}

bool have_sse42() {
  static const bool ok = __builtin_cpu_supports("sse4.2");
  return ok;
}
#endif

}  // namespace

std::uint32_t crc32(const void* data, std::size_t bytes) {
#if defined(__x86_64__) || defined(__i386__)
  if (have_sse42()) return crc32c_hw(data, bytes);
#endif
  return crc32c_table(data, bytes);
}

}  // namespace soi::net
