// Byte-sequence aliases and helpers shared across the codebase.

#ifndef HOTSTUFF1_COMMON_BYTES_H_
#define HOTSTUFF1_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace hotstuff1 {

using Bytes = std::vector<uint8_t>;

inline Bytes ToBytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

inline std::string BytesToString(const Bytes& b) {
  return std::string(b.begin(), b.end());
}

inline void AppendU64(Bytes* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

inline void AppendU32(Bytes* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

/// Lowercase hex encoding of an arbitrary byte range.
inline std::string HexEncode(const uint8_t* data, size_t len) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(len * 2);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(kDigits[data[i] >> 4]);
    out.push_back(kDigits[data[i] & 0xf]);
  }
  return out;
}

inline std::string HexEncode(const Bytes& b) { return HexEncode(b.data(), b.size()); }

}  // namespace hotstuff1

#endif  // HOTSTUFF1_COMMON_BYTES_H_
