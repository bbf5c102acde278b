// Wire messages exchanged by replicas. Message payloads hold shared block
// pointers (the simulator is in-process); WireSize() reports what the real
// encoding would occupy so the bandwidth model stays honest.

#ifndef HOTSTUFF1_CONSENSUS_MESSAGES_H_
#define HOTSTUFF1_CONSENSUS_MESSAGES_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "consensus/certificate.h"
#include "ledger/block.h"
#include "sim/network.h"

namespace hotstuff1 {

struct ConsensusMessage : public sim::NetMessage {
  enum class Type : uint8_t {
    kPropose = 0,
    kVote = 1,         // ProposeVote (basic) / NewSlot vote (slotted)
    kPrepare = 2,      // basic HotStuff-1: leader broadcasts P(v)
    kNewView = 3,      // view transition, optionally carrying a vote share
    kReject = 4,       // slotted: replica rejects an unsafe first slot
    kWish = 5,         // pacemaker epoch synchronization
    kTimeoutCert = 6,  // pacemaker TC broadcast/relay
    kFetchRequest = 7, // recovery: ask for a block by hash
    kFetchResponse = 8,
  };

  ConsensusMessage(Type t, ReplicaId s) : type(t), sender(s) {}

  Type type;
  ReplicaId sender;

  /// Authenticator size model the WireSize overrides consult for share and
  /// certificate bytes. Messages travel as shared_ptr<const ...>, so the
  /// sender's transport (ReplicaBase::SendTo/Broadcast/SendMasked — the one
  /// choke point all consensus traffic crosses) stamps it via this mutable
  /// field before Network::Send reads WireSize; receivers only ever read.
  /// The default (vector scheme) reproduces the pre-model byte accounting,
  /// so unstamped messages (unit tests constructing messages directly) keep
  /// their legacy sizes.
  mutable AuthSizeModel auth;
  void StampAuth(const AuthSizeModel& model) const { auth = model; }
};

using ConsensusMessagePtr = std::shared_ptr<const ConsensusMessage>;

/// Leader proposal. For slotted first-slot proposals in way (ii), the block's
/// parent is the carried block (chained through it), `justify` certifies the
/// grandparent, and `carry` attaches the carried block so receivers missing
/// it need not fetch (wire cost counts only its hash; see DESIGN.md).
struct ProposeMsg : public ConsensusMessage {
  ProposeMsg(ReplicaId s) : ConsensusMessage(Type::kPropose, s) {}

  BlockPtr block;
  Certificate justify;                     // P(v_lp) the proposal extends
  std::optional<Certificate> commit_cert;  // basic HotStuff-1: C(v_lc)
  BlockPtr carry;                          // slotted way (ii) carry block

  size_t WireSize() const override {
    size_t sz = 32 + block->WireSize() + justify.WireSize(auth);
    if (commit_cert) sz += commit_cert->WireSize(auth);
    if (carry) sz += 32;  // H_u only; the block itself was already broadcast
    return sz;
  }
};

/// A vote share sent to the aggregating leader: ProposeVote in basic
/// HotStuff-1 (to L_v) or a NewSlot vote in slotted HotStuff-1 (to L_v).
struct VoteMsg : public ConsensusMessage {
  VoteMsg(ReplicaId s) : ConsensusMessage(Type::kVote, s) {}

  CertKind vote_kind = CertKind::kPrepare;
  BlockId block_id;  // the context view is block_id.view
  Hash256 block_hash;
  Signature share;
  Certificate high_cert;  // voter's highest certificate (slotted NewSlot msgs)

  // 64 fixed (kind, views, block id, hashes) + one share + the carried cert.
  // Vector scheme: 64 + 96 + cert = the historical 160 + cert.
  size_t WireSize() const override {
    return 64 + auth.ShareBytes() + high_cert.WireSize(auth);
  }
};

/// Basic HotStuff-1 second half-phase: the leader broadcasts the prepare
/// certificate it formed (Fig. 2, line 15).
struct PrepareMsg : public ConsensusMessage {
  PrepareMsg(ReplicaId s) : ConsensusMessage(Type::kPrepare, s) {}

  Certificate cert;

  size_t WireSize() const override { return 48 + cert.WireSize(auth); }
};

/// View transition message to the next leader. In the streamlined protocols
/// this doubles as the vote carrier (Fig. 4 line 18); on timeout the share
/// is absent (⊥). In slotted HotStuff-1 the share is a New-View share over
/// (P(s_lp, v_lp), H_h) where H_h is the highest voted block (Fig. 7 l.28).
struct NewViewMsg : public ConsensusMessage {
  NewViewMsg(ReplicaId s) : ConsensusMessage(Type::kNewView, s) {}

  uint64_t target_view = 0;
  Certificate high_cert;
  bool has_share = false;
  CertKind share_kind = CertKind::kPrepare;
  Signature share;
  BlockId voted_id;     // id of the block the share votes for (H_h's id)
  Hash256 voted_hash;   // H_h

  // 104 fixed (target view, share metadata, voted id/hash) + the share slot
  // + the carried cert. Vector scheme: 104 + 96 + cert = the historical
  // 200 + cert. The share slot is charged even when has_share is false (⊥
  // timeouts), matching the fixed-frame encoding the constants assume.
  size_t WireSize() const override {
    return 104 + auth.ShareBytes() + high_cert.WireSize(auth);
  }
};

/// Slotted HotStuff-1: replica rejects an unsafe proposal and reports its
/// highest certificate (Fig. 7 line 25).
struct RejectMsg : public ConsensusMessage {
  RejectMsg(ReplicaId s) : ConsensusMessage(Type::kReject, s) {}

  uint64_t view = 0;
  uint32_t slot = 1;
  Certificate high_cert;

  size_t WireSize() const override { return 64 + high_cert.WireSize(auth); }
};

/// Pacemaker Wish (Fig. 3 line 10).
struct WishMsg : public ConsensusMessage {
  WishMsg(ReplicaId s) : ConsensusMessage(Type::kWish, s) {}

  uint64_t view = 0;
  Signature share;

  // 16 fixed (view) + one share. Vector scheme: the historical 112.
  size_t WireSize() const override { return 16 + auth.ShareBytes(); }
};

/// Pacemaker timeout certificate TC_v (Fig. 3 lines 12-15).
struct TimeoutCertMsg : public ConsensusMessage {
  TimeoutCertMsg(ReplicaId s) : ConsensusMessage(Type::kTimeoutCert, s) {}

  uint64_t view = 0;
  std::vector<Signature> sigs;

  // A TC is a quorum certificate over (view, ⊥): same authenticator shapes
  // as a block certificate. Vector scheme: the historical 48 + |sigs|*96.
  size_t WireSize() const override { return 48 + auth.CertBytes(sigs.size()); }
};

/// Recovery fetch of a missing block (§4.2, Recovery Mechanism).
struct FetchRequestMsg : public ConsensusMessage {
  FetchRequestMsg(ReplicaId s) : ConsensusMessage(Type::kFetchRequest, s) {}

  Hash256 hash;

  size_t WireSize() const override { return 64; }
};

struct FetchResponseMsg : public ConsensusMessage {
  FetchResponseMsg(ReplicaId s) : ConsensusMessage(Type::kFetchResponse, s) {}

  BlockPtr block;

  size_t WireSize() const override { return 32 + (block ? block->WireSize() : 0); }
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_CONSENSUS_MESSAGES_H_
