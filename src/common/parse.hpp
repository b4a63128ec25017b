// Strict number parsing for every text surface (CLI flags, wisdom lines,
// topology and fault specs, serialised profiles): the whole string must be
// one base-10 number — no leading blanks, no trailing junk, no overflow.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>

namespace soi {

/// `text` as an integer in [lo, hi]. Throws soi::InvalidArgumentError
/// "<what>: expected an integer[ in [lo, hi]], got '<text>'" otherwise, so
/// callers that narrow the result (to int, say) pass that type's range.
std::int64_t parse_int(
    std::string_view text, std::string_view what,
    std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
    std::int64_t hi = std::numeric_limits<std::int64_t>::max());

/// `text` as a finite double (decimal or exponent form). Throws
/// soi::InvalidArgumentError "<what>: expected a number, got '<text>'"
/// otherwise.
double parse_double(std::string_view text, std::string_view what);

}  // namespace soi
