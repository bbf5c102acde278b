// Certificates: quorums of signature shares over a block, in one of four
// roles. Matching the paper's implementation note (§7), a certificate is a
// list of n−f digital signatures rather than an aggregated threshold
// signature; the consensus-visible contract is identical.
//
// Kinds:
//   kPrepare  - first-phase certificate P(v) (basic & streamlined protocols)
//   kCommit   - second-phase certificate C(v) (basic HotStuff-1 only)
//   kNewSlot  - slotting: certifies slot (s, v) within a view (§6.1)
//   kNewView  - slotting: formed from NewView votes; annotated with the view
//               `fv` in which it was formed (§6.1)

#ifndef HOTSTUFF1_CONSENSUS_CERTIFICATE_H_
#define HOTSTUFF1_CONSENSUS_CERTIFICATE_H_

#include <string>
#include <vector>

#include "common/replica_set.h"
#include "common/status.h"
#include "crypto/authenticator.h"
#include "crypto/signer.h"
#include "ledger/block.h"

namespace hotstuff1 {

enum class CertKind : uint8_t {
  kPrepare = 0,
  kCommit = 1,
  kNewSlot = 2,
  kNewView = 3,
};

const char* CertKindName(CertKind kind);

/// Digest a voter signs for a given vote. `context_view` is the view the
/// vote is cast in (for NewView votes, the view being entered), binding
/// shares to their protocol step so they cannot be replayed across views,
/// slots, or certificate kinds.
Hash256 VoteDigest(CertKind kind, uint64_t context_view, const BlockId& block_id,
                   const Hash256& block_hash);

/// Signature domain of a share of `kind` (one domain per protocol step).
SignDomain DomainFor(CertKind kind);

/// The view a share of `kind` is cast in, which VoteDigest binds: for a
/// New-View share the view being entered (`entered_view`, which becomes the
/// certificate's formed view), for every other kind the voted block's view.
inline uint64_t ShareContextView(CertKind kind, uint64_t block_view,
                                 uint64_t entered_view) {
  return kind == CertKind::kNewView ? entered_view : block_view;
}

/// \brief Quorum certificate over one block.
class Certificate {
 public:
  Certificate() = default;
  Certificate(CertKind kind, BlockId block_id, Hash256 block_hash,
              uint64_t formed_view, std::vector<Signature> sigs)
      : kind_(kind),
        block_id_(block_id),
        block_hash_(block_hash),
        formed_view_(formed_view),
        sigs_(std::move(sigs)) {}

  /// The hard-coded certificate for the genesis block that every replica
  /// assumes valid (§4.1).
  static Certificate Genesis();

  CertKind kind() const { return kind_; }
  /// (slot, view) of the certified block.
  const BlockId& block_id() const { return block_id_; }
  uint64_t view() const { return block_id_.view; }
  uint32_t slot() const { return block_id_.slot; }
  const Hash256& block_hash() const { return block_hash_; }
  /// View in which the certificate was formed. Equals the block's view for
  /// Prepare/Commit/NewSlot certificates; may be higher for NewView
  /// certificates (the `fv` annotation of §6.1).
  uint64_t formed_view() const { return formed_view_; }
  const std::vector<Signature>& sigs() const { return sigs_; }

  bool IsGenesis() const { return block_id_ == BlockId{0, 0} && sigs_.empty(); }

  /// Lexicographic certificate ranking used for "highest known certificate"
  /// comparisons ((view, slot) of the certified block, §6.1).
  bool RanksLowerThan(const Certificate& other) const {
    return block_id_ < other.block_id_;
  }
  bool RanksAtMost(const Certificate& other) const {
    return block_id_ <= other.block_id_;
  }

  /// The vote digest every share in this certificate signs.
  Hash256 SharesDigest() const {
    return VoteDigest(kind_, ShareContextView(kind_, block_id_.view, formed_view_),
                      block_id_, block_hash_);
  }

  /// Full verification: quorum size, signer distinctness, signature validity
  /// over the reconstructed vote digest. Genesis verifies trivially.
  Status Verify(const KeyRegistry& registry, uint32_t quorum) const;
  /// As above for a non-genesis certificate whose SharesDigest() the caller
  /// already holds.
  Status Verify(const KeyRegistry& registry, uint32_t quorum,
                const Hash256& shares_digest) const;

  /// Wire bytes: a 64-byte header (kind, block id, hashes, formed view) plus
  /// the authenticator section, whose size the scheme decides — the share
  /// vector is O(n), an aggregate is O(1) + bitmap, a threshold signature is
  /// O(1). The default model (multisig vector) reproduces the historical
  /// 64 + shares*96 accounting. Only the byte count varies: `sigs_` itself —
  /// share counting, signer distinctness, digest verification — is identical
  /// under every scheme.
  size_t WireSize(const AuthSizeModel& model = AuthSizeModel{}) const {
    return 64 + model.CertBytes(sigs_.size());
  }

  std::string ToString() const;

 private:
  CertKind kind_ = CertKind::kPrepare;
  BlockId block_id_{0, 0};
  Hash256 block_hash_;
  uint64_t formed_view_ = 0;
  std::vector<Signature> sigs_;
};

/// \brief Accumulates vote shares until a quorum forms. One instance per
/// (kind, context view, block) the aggregating leader tracks.
class VoteAccumulator {
 public:
  VoteAccumulator(CertKind kind, uint64_t context_view, BlockId block_id,
                  Hash256 block_hash, uint32_t quorum)
      : kind_(kind),
        context_view_(context_view),
        block_id_(block_id),
        block_hash_(block_hash),
        digest_(VoteDigest(kind, context_view, block_id, block_hash)),
        quorum_(quorum) {}

  /// Adds a share if the signer is new. Returns true when the quorum is
  /// reached exactly by this addition (fires once).
  bool Add(const Signature& sig);

  size_t count() const { return sigs_.size(); }
  bool complete() const { return sigs_.size() >= quorum_; }

  /// Builds the certificate; requires complete(). `formed_view` defaults to
  /// the block's view.
  Certificate Build(uint64_t formed_view) const;
  Certificate Build() const { return Build(block_id_.view); }

  CertKind kind() const { return kind_; }
  uint64_t context_view() const { return context_view_; }
  const Hash256& block_hash() const { return block_hash_; }
  const BlockId& block_id() const { return block_id_; }
  /// The VoteDigest every share this accumulator takes must sign.
  const Hash256& digest() const { return digest_; }

 private:
  CertKind kind_;
  uint64_t context_view_;
  BlockId block_id_;
  Hash256 block_hash_;
  Hash256 digest_;
  uint32_t quorum_;
  ReplicaSet signers_;  // O(1) duplicate-signer rejection at any committee size
  std::vector<Signature> sigs_;
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_CONSENSUS_CERTIFICATE_H_
