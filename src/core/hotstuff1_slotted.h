// Streamlined HotStuff-1 with adaptive slotting (§6, Figs. 5-7).
//
// Each view lasts a full pacemaker period τ; within it the leader proposes
// as many slots as network round-trips allow (adaptive slotting). Votes for
// slot (s, v) travel back to L_v as NewSlot shares; view transitions happen
// only on the view timer, carrying New-View shares over (P(s_lp, v_lp), H_h).
//
// First-slot proposals must provide a self-contained proof of no
// tail-forking in one of two ways (§6.1):
//   (i)  extend a New-View certificate formed by this leader (fv = v), or
//   (ii) extend the leader's highest certificate and *carry* the lowest
//        uncertified block extending it (the carry block becomes the
//        first-slot block's chain parent; committing the first slot commits
//        the carry).
// Replicas enforce this via SafeSlot cases 1-4 (Fig. 7) and Reject unsafe
// proposals; leaders use Rejects to distrust concealing previous leaders
// (§6.3), falling back from the trusted-leader network-speed fast path to
// the four waiting conditions of Fig. 6 line 6.
//
// ReplicaBase runs the view change, keeps the highest certificate and
// commits by the prefix rule over (view, slot) positions; this core adds
// the New-View share its NewView carries (SendViewChange) and tracks which
// blocks are certified, for the carry search.

#ifndef HOTSTUFF1_CORE_HOTSTUFF1_SLOTTED_H_
#define HOTSTUFF1_CORE_HOTSTUFF1_SLOTTED_H_

#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/replica_set.h"
#include "consensus/replica.h"

namespace hotstuff1 {

class HotStuff1SlottedReplica : public ReplicaBase {
 public:
  using ReplicaBase::ReplicaBase;

  const char* Name() const override { return "HotStuff-1 (slotting)"; }

  bool Distrusts(ReplicaId r) const { return distrusted_[r]; }

 protected:
  void OnEnterView(uint64_t view) override;
  void OnProtocolMessage(const ConsensusMessage& msg) override;
  void OnBlockFetched(const BlockPtr& block) override;
  /// The normal end of a slotted view (§6.1 View-change), and the
  /// bootstrap: the NewView also carries a New-View share over our highest
  /// voted block H_h (Fig. 7 lines 27-31).
  void SendViewChange(uint64_t target) override {
    SendNewView(target, high_cert_, CertKind::kNewView, *high_voted_);
  }

 private:
  struct LeaderState {
    ReplicaSet nv_senders;
    ShareTally nv_accs;
    std::optional<Certificate> formed_nv;        // way (i) certificate
    std::optional<Certificate> prev_leader_cert; // trusted fast path (§6.3)
    bool share_timer_passed = false;
    bool first_proposed = false;
    uint32_t slots_proposed = 0;
    std::optional<VoteAccumulator> slot_acc;  // NewSlot votes for latest slot
  };

  void HandlePropose(const ProposeMsg& msg);
  void HandleNewView(const NewViewMsg& msg);
  void HandleNewSlotVote(const VoteMsg& msg);
  void HandleReject(const RejectMsg& msg);

  void MaybeProposeFirst(uint64_t view);
  /// Proposes the first slot: way (i) when `nv_cert` is set, else way (ii)
  /// with a carry block. Returns false when a required block is missing
  /// (fetch started; retried via OnBlockFetched).
  bool ProposeFirstSlot(uint64_t view);
  void ProposeNextSlot(uint64_t view, const Certificate& just_formed);
  void SendProposal(uint64_t view, uint32_t slot, const Certificate& justify,
                    BlockPtr parent, BlockPtr carry);

  bool SafeSlot(const ProposeMsg& msg, const BlockPtr& carry) const;
  void RememberChild(const BlockPtr& block);
  BlockPtr LowestUncertifiedChild(const Hash256& parent_hash) const;
  /// Every certificate this core learns passes here: marks its block
  /// certified, then raises the highest certificate.
  void LearnCert(const Certificate& cert);
  /// True if `cert` was formed in view `v` (NewSlot of view v, or NewView
  /// with fv = v).
  static bool FormedInView(const Certificate& cert, uint64_t v);

  BlockPtr high_voted_ = Block::Genesis();  // H_h: the highest block voted for
  uint32_t next_slot_ = 1;   // next slot we may vote on in slot_view_
  uint64_t slot_view_ = 0;
  std::vector<bool> distrusted_ = std::vector<bool>(config_.n, false);

  std::map<uint64_t, LeaderState> lstate_;
  std::map<uint64_t, std::vector<std::shared_ptr<const ProposeMsg>>> pending_proposals_;
  std::unordered_multimap<Hash256, BlockPtr, Hash256Hasher> children_;
  std::unordered_set<Hash256, Hash256Hasher> certified_;
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_CORE_HOTSTUFF1_SLOTTED_H_
