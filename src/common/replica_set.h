// Fixed-capacity multi-word replica bitset: the canonical representation of
// "a set of replica ids" wherever quorums are counted — client response
// tallies, leader-side NewView/Wish sender tracking. A plain uint64_t mask
// caps committees at one machine word (n <= 64) and silently aliases ids via
// `1ULL << (id % 64)`; ReplicaSet raises the cap to kCapacity = 512 and
// turns any out-of-range id into a hard check instead of a vote for
// somebody else.
//
// Value semantics are cheap by design (a few words, trivially copyable), so
// the type can live inside per-transaction tallies that are created and
// copied on the hot path.

#ifndef HOTSTUFF1_COMMON_REPLICA_SET_H_
#define HOTSTUFF1_COMMON_REPLICA_SET_H_

#include <bit>
#include <cstdint>

#include "common/logging.h"

namespace hotstuff1 {

class ReplicaSet {
 public:
  /// Largest committee any quorum-tracking structure supports (the n = 512
  /// scalability extension; a multiple of 64).
  static constexpr uint32_t kCapacity = 512;

  constexpr ReplicaSet() = default;

  static ReplicaSet Single(uint32_t r) {
    ReplicaSet s;
    s.Set(r);
    return s;
  }

  /// Out-of-range ids are a protocol bug (a vote from a replica that cannot
  /// exist), never silently folded onto another replica's bit.
  void Set(uint32_t r) {
    HS1_CHECK_LT(r, kCapacity) << "replica id beyond ReplicaSet capacity";
    words_[r / 64] |= 1ULL << (r % 64);
  }

  bool Test(uint32_t r) const {
    HS1_CHECK_LT(r, kCapacity) << "replica id beyond ReplicaSet capacity";
    return (words_[r / 64] >> (r % 64)) & 1ULL;
  }

  /// Number of replicas in the set — the quorum-threshold comparison.
  uint32_t Count() const {
    uint32_t total = 0;
    for (uint64_t w : words_) total += static_cast<uint32_t>(std::popcount(w));
    return total;
  }

  bool None() const {
    for (uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  ReplicaSet& operator|=(const ReplicaSet& o) {
    for (uint32_t i = 0; i < kWords; ++i) words_[i] |= o.words_[i];
    return *this;
  }
  ReplicaSet& operator&=(const ReplicaSet& o) {
    for (uint32_t i = 0; i < kWords; ++i) words_[i] &= o.words_[i];
    return *this;
  }

  friend ReplicaSet operator|(ReplicaSet a, const ReplicaSet& b) { return a |= b; }
  friend ReplicaSet operator&(ReplicaSet a, const ReplicaSet& b) { return a &= b; }

  friend bool operator==(const ReplicaSet& a, const ReplicaSet& b) {
    for (uint32_t i = 0; i < kWords; ++i) {
      if (a.words_[i] != b.words_[i]) return false;
    }
    return true;
  }
  friend bool operator!=(const ReplicaSet& a, const ReplicaSet& b) { return !(a == b); }

 private:
  static constexpr uint32_t kWords = kCapacity / 64;
  uint64_t words_[kWords] = {};
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_COMMON_REPLICA_SET_H_
