// FIPS 180-4 SHA-256, implemented from scratch (no OpenSSL dependency).
// Used for block hashing, signature MACs, and workload key derivation.
//
// Whole 64-byte blocks go to one of two compression kernels, chosen once from
// CPUID (crypto/sha256_kernels.h): an x86 SHA-NI kernel where the CPU has SHA
// extensions, else a portable loop, which is also the reference the tests
// check the other against. Both produce the same bytes. How fast the host
// hashes never reaches virtual time: replicas charge CostModel's sign_us and
// verify_us instead.

#ifndef HOTSTUFF1_CRYPTO_SHA256_H_
#define HOTSTUFF1_CRYPTO_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/bytes.h"

namespace hotstuff1 {

/// 32-byte digest value type.
struct Hash256 {
  std::array<uint8_t, 32> bytes{};

  bool operator==(const Hash256& other) const { return bytes == other.bytes; }
  bool operator!=(const Hash256& other) const { return bytes != other.bytes; }
  bool operator<(const Hash256& other) const { return bytes < other.bytes; }

  bool IsZero() const {
    for (uint8_t b : bytes) {
      if (b != 0) return false;
    }
    return true;
  }

  /// First 8 bytes as little-endian u64, for hashing into containers.
  uint64_t Prefix64() const {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(bytes[i]) << (8 * i);
    return v;
  }

  std::string ToHex() const { return HexEncode(bytes.data(), bytes.size()); }
  /// Short (8 hex char) form for log messages.
  std::string Short() const { return ToHex().substr(0, 8); }
};

struct Hash256Hasher {
  size_t operator()(const Hash256& h) const { return static_cast<size_t>(h.Prefix64()); }
};

/// \brief Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256() { Reset(); }

  void Reset();
  void Update(const void* data, size_t len);
  void Update(std::string_view s) { Update(s.data(), s.size()); }
  void Update(const Bytes& b) { Update(b.data(), b.size()); }
  void Update(const Hash256& h) { Update(h.bytes.data(), h.bytes.size()); }
  void UpdateU64(uint64_t v) {
    uint8_t buf[8];
    for (int i = 0; i < 8; ++i) buf[i] = static_cast<uint8_t>(v >> (8 * i));
    Update(buf, 8);
  }

  /// Pads, finalizes and returns the digest. The context must be Reset()
  /// before reuse.
  Hash256 Finish();

  /// One-shot helpers.
  static Hash256 Digest(const void* data, size_t len);
  static Hash256 Digest(std::string_view s) { return Digest(s.data(), s.size()); }
  static Hash256 Digest(const Bytes& b) { return Digest(b.data(), b.size()); }

 private:
  /// Compresses `count` whole 64-byte blocks into the state.
  void ProcessBlocks(const uint8_t* data, size_t count);

  uint32_t h_[8];
  uint64_t total_len_ = 0;
  /// Input short of a whole block in the first 64 bytes; Finish pads into
  /// the second block when the first has no room for the length.
  uint8_t buffer_[128];
  size_t buffer_len_ = 0;
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_CRYPTO_SHA256_H_
