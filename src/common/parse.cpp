#include "common/parse.hpp"

#include <charconv>
#include <cmath>
#include <string>
#include <system_error>

#include "common/error.hpp"

namespace soi {

namespace {

template <class T>
bool parse_whole(std::string_view text, T& value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return ec == std::errc{} && ptr == end && !text.empty();
}

[[noreturn]] void reject(std::string_view text, std::string_view what,
                         const std::string& expected) {
  throw InvalidArgumentError(std::string(what) + ": expected " + expected +
                             ", got '" + std::string(text) + "'");
}

}  // namespace

std::int64_t parse_int(std::string_view text, std::string_view what,
                       std::int64_t lo, std::int64_t hi) {
  std::int64_t v = 0;
  if (!parse_whole(text, v) || v < lo || v > hi) {
    const bool bounded = lo != std::numeric_limits<std::int64_t>::min() ||
                         hi != std::numeric_limits<std::int64_t>::max();
    reject(text, what,
           bounded ? "an integer in [" + std::to_string(lo) + ", " +
                         std::to_string(hi) + "]"
                   : std::string("an integer"));
  }
  return v;
}

double parse_double(std::string_view text, std::string_view what) {
  double v = 0.0;
  if (!parse_whole(text, v) || !std::isfinite(v)) reject(text, what, "a number");
  return v;
}

}  // namespace soi
