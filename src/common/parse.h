// Strict number parsing shared by every text grammar: command-line knobs
// (runtime/config_schema.h), strategy schedules (runtime/adversary.h),
// committee schedules (consensus/committee.h) and lookahead windows.

#ifndef HOTSTUFF1_COMMON_PARSE_H_
#define HOTSTUFF1_COMMON_PARSE_H_

#include <cstdint>
#include <string_view>

namespace hotstuff1 {

/// Parses a plain decimal digit string no greater than `max`. strtoll-style
/// parsers accept "+5", " 5" and wrap or saturate on overflow; every grammar
/// here must round-trip through its formatter, which never emits those, so
/// they are all rejected. Returns false (leaving `out` untouched) on junk.
inline bool ParseUint(std::string_view s, uint64_t max, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (digit > max || v > (max - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

}  // namespace hotstuff1

#endif  // HOTSTUFF1_COMMON_PARSE_H_
