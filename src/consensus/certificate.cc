#include "consensus/certificate.h"

#include "common/logging.h"

namespace hotstuff1 {

const char* CertKindName(CertKind kind) {
  switch (kind) {
    case CertKind::kPrepare: return "Prepare";
    case CertKind::kCommit: return "Commit";
    case CertKind::kNewSlot: return "NewSlot";
    case CertKind::kNewView: return "NewView";
  }
  return "?";
}

Hash256 VoteDigest(CertKind kind, uint64_t context_view, const BlockId& block_id,
                   const Hash256& block_hash) {
  Sha256 ctx;
  ctx.Update("hs1-vote");
  const uint8_t k = static_cast<uint8_t>(kind);
  ctx.Update(&k, 1);
  ctx.UpdateU64(context_view);
  ctx.UpdateU64(block_id.view);
  ctx.UpdateU64(block_id.slot);
  ctx.Update(block_hash);
  return ctx.Finish();
}

SignDomain DomainFor(CertKind kind) {
  switch (kind) {
    case CertKind::kPrepare: return SignDomain::kProposeVote;
    case CertKind::kCommit: return SignDomain::kCommitVote;
    case CertKind::kNewSlot: return SignDomain::kNewSlot;
    case CertKind::kNewView: return SignDomain::kNewView;
  }
  return SignDomain::kProposeVote;
}

Certificate Certificate::Genesis() {
  Certificate cert;
  cert.kind_ = CertKind::kPrepare;
  cert.block_id_ = BlockId{0, 0};
  cert.block_hash_ = Block::Genesis()->hash();
  cert.formed_view_ = 0;
  return cert;
}

Status Certificate::Verify(const KeyRegistry& registry, uint32_t quorum) const {
  if (IsGenesis()) {
    if (block_hash_ != Block::Genesis()->hash()) {
      return Status::Unauthenticated("malformed genesis certificate");
    }
    return Status::OK();
  }
  return Verify(registry, quorum, SharesDigest());
}

Status Certificate::Verify(const KeyRegistry& registry, uint32_t quorum,
                           const Hash256& shares_digest) const {
  return registry.VerifyQuorum(sigs_, DomainFor(kind_), shares_digest, quorum);
}

std::string Certificate::ToString() const {
  std::string out = "P[";
  out += CertKindName(kind_);
  out += "](" + std::to_string(block_id_.slot) + "," + std::to_string(block_id_.view) + ")";
  if (kind_ == CertKind::kNewView) out += " fv=" + std::to_string(formed_view_);
  out += " " + block_hash_.Short();
  return out;
}

bool VoteAccumulator::Add(const Signature& sig) {
  if (signers_.Test(sig.signer)) return false;
  signers_.Set(sig.signer);
  sigs_.push_back(sig);
  return sigs_.size() == quorum_;
}

Certificate VoteAccumulator::Build(uint64_t formed_view) const {
  HS1_CHECK(complete()) << "building certificate from incomplete quorum";
  return Certificate(kind_, block_id_, block_hash_, formed_view, sigs_);
}

}  // namespace hotstuff1
