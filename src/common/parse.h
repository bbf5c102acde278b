// Strict parsing shared by every text grammar: command-line knobs
// (runtime/config_schema.h), strategy schedules (runtime/adversary.h),
// committee schedules (consensus/committee.h) and lookahead windows.

#ifndef HOTSTUFF1_COMMON_PARSE_H_
#define HOTSTUFF1_COMMON_PARSE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

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

/// Splits on every `sep`, keeping empty parts ("a;;b" -> {"a", "", "b"}).
inline std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      parts.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

/// Appends the ids of "<id>" and "<lo>-<hi>" (inclusive) terms joined by '+'
/// to `out`, in the order written ("0-3+8" -> {0,1,2,3,8}). Every id must be
/// at most `max_id`, which also bounds what one range can expand to. Returns
/// false on malformed or empty input and on an id above `max_id`.
inline bool ParseIdList(const std::string& s, uint64_t max_id,
                        std::vector<uint32_t>* out) {
  for (const std::string& part : Split(s, '+')) {
    uint64_t lo = 0, hi = 0;
    const size_t dash = part.find('-');
    if (dash == std::string::npos) {
      if (!ParseUint(part, max_id, &lo)) return false;
      hi = lo;
    } else if (!ParseUint(part.substr(0, dash), max_id, &lo) ||
               !ParseUint(part.substr(dash + 1), max_id, &hi) || hi < lo) {
      return false;
    }
    for (uint64_t id = lo; id <= hi; ++id) out->push_back(static_cast<uint32_t>(id));
  }
  return true;
}

/// Inverse of ParseIdList: maximal runs of consecutive ids re-compressed to
/// "lo-hi", joined by '+'.
inline std::string FormatIdList(const std::vector<uint32_t>& ids) {
  std::string out;
  for (size_t i = 0; i < ids.size();) {
    size_t j = i;
    while (j + 1 < ids.size() && ids[j + 1] == ids[j] + 1) ++j;
    if (i > 0) out += '+';
    out += std::to_string(ids[i]);
    if (j > i) out += '-' + std::to_string(ids[j]);
    i = j + 1;
  }
  return out;
}

}  // namespace hotstuff1

#endif  // HOTSTUFF1_COMMON_PARSE_H_
