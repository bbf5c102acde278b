// The streamlined chained skeleton shared by HotStuff, HotStuff-2 and
// streamlined HotStuff-1, plus the HotStuff baseline itself.
//
// Skeleton (one phase per view): the leader of view v collects NewView
// messages carrying prepare shares for the view v-1 proposal, forms P(v-1)
// when possible, proposes a block extending its highest certificate, and
// broadcasts it. Replicas validate, apply the protocol-specific commit rule
// (the `ProcessCertificate` hook), vote by sending a NewView message with a
// prepare share to the next leader, and exit the view. The view change, the
// highest certificate and the prefix commit rule live in ReplicaBase.
//
// The protocols differ only in the hook:
//   HotStuff     - CommitPrefix over 2 links (3-chain), f+1 client quorum
//   HotStuff-2   - CommitPrefix over 1 link (Def. 4.6), f+1 client quorum
//   HotStuff-1   - CommitPrefix over 1 link + speculation at 1-chain (§5),
//                  n-f client quorum

#ifndef HOTSTUFF1_BASELINES_HOTSTUFF_H_
#define HOTSTUFF1_BASELINES_HOTSTUFF_H_

#include <map>
#include <memory>

#include "common/replica_set.h"
#include "consensus/replica.h"

namespace hotstuff1 {

class ChainedReplica : public ReplicaBase {
 public:
  using ReplicaBase::ReplicaBase;

 protected:
  // --- protocol-specific hook -------------------------------------------------
  /// Called once per newly learned certificate `justify` (whose block is in
  /// the store), in the context of the proposal `proposal` it justifies.
  /// Applies the protocol's commit rule and (for HotStuff-1) speculation.
  virtual void ProcessCertificate(const Certificate& justify,
                                  const BlockPtr& certified,
                                  const BlockId& proposal) = 0;

  // --- ReplicaBase ------------------------------------------------------------
  void OnEnterView(uint64_t view) override;
  void OnProtocolMessage(const ConsensusMessage& msg) override;
  void OnBlockFetched(const BlockPtr& block) override;

 private:
  struct LeaderViewState {
    ReplicaSet senders;
    ShareTally accs;
    bool formed = false;       // formed P(v-1) from shares
    bool share_timer_passed = false;
    bool proposed = false;
    bool waiting_block = false;  // parent missing; fetch in flight
  };

  void HandlePropose(const ProposeMsg& msg);
  void HandleNewView(const NewViewMsg& msg);
  void MaybePropose(uint64_t view);
  void Propose(uint64_t view);
  void BuildAndSend(uint64_t view, const Certificate& justify);
  void VoteOn(const ProposeMsg& msg);
  void ExitView(uint64_t view);

  uint64_t voted_view_ = 0;
  std::map<uint64_t, LeaderViewState> nv_state_;
  // Proposal awaiting view entry (arrived early) keyed by its view.
  std::map<uint64_t, std::shared_ptr<const ProposeMsg>> pending_votes_;
};

/// HotStuff (Yin et al., PODC'19), chained: 3-chain commit, no speculation.
/// 7 half-phases from proposal to committed response.
class HotStuffReplica : public ChainedReplica {
 public:
  using ChainedReplica::ChainedReplica;
  const char* Name() const override { return "HotStuff"; }

 protected:
  void ProcessCertificate(const Certificate& justify, const BlockPtr& certified,
                          const BlockId& proposal) override;
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_BASELINES_HOTSTUFF_H_
