#include "crypto/signer.h"

#include "common/logging.h"
#include "common/replica_set.h"

namespace hotstuff1 {

KeyRegistry::KeyRegistry(uint32_t n, uint64_t seed) {
  // VerifyQuorum tracks signers in a ReplicaSet, so every key id must fit.
  HS1_CHECK_LE(n, ReplicaSet::kCapacity) << "more keys than ReplicaSet holds";
  keys_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Sha256 ctx;
    ctx.Update("hs1-keygen");
    ctx.UpdateU64(seed);
    ctx.UpdateU64(i);
    keys_.push_back(ctx.Finish());
  }
}

Hash256 KeyRegistry::ComputeMac(ReplicaId signer, SignDomain domain,
                                const Hash256& digest) const {
  Sha256 ctx;
  ctx.Update(keys_[signer]);
  const uint8_t d = static_cast<uint8_t>(domain);
  ctx.Update(&d, 1);
  ctx.Update(digest);
  return ctx.Finish();
}

bool KeyRegistry::Verify(const Signature& sig, SignDomain domain,
                         const Hash256& digest) const {
  if (sig.signer >= keys_.size()) return false;
  return ComputeMac(sig.signer, domain, digest) == sig.mac;
}

Status KeyRegistry::VerifyQuorum(const std::vector<Signature>& sigs,
                                 SignDomain domain, const Hash256& digest,
                                 uint32_t quorum) const {
  if (sigs.size() < quorum) {
    return Status::Unauthenticated("quorum too small: have " +
                                   std::to_string(sigs.size()) + ", need " +
                                   std::to_string(quorum));
  }
  ReplicaSet seen;
  for (const Signature& sig : sigs) {
    // Verify rejects an id without a key, so only ids below n reach the set.
    if (!Verify(sig, domain, digest)) {
      return Status::Unauthenticated("invalid signature from replica " +
                                     std::to_string(sig.signer));
    }
    if (seen.Test(sig.signer)) {
      return Status::Unauthenticated("duplicate signer " + std::to_string(sig.signer));
    }
    seen.Set(sig.signer);
  }
  return Status::OK();
}

}  // namespace hotstuff1
