// Basic (non-streamlined) HotStuff-1 (§4, Fig. 2). Each view runs two full
// phases under one leader:
//
//   Propose  -> ProposeVote (to L_v)  -> Prepare broadcast of P(v)
//            -> NewView (to L_{v+1}) carrying a commit share for P(v)
//
// Replicas speculatively execute B_v upon receiving the Prepare message
// (3 half-phases), guarded by the Prefix Speculation and No-Gap rules. Two
// commit rules coexist: the traditional rule (commit-certificate C(x)
// delivered in the next Propose, Def. 4.5) and the prefix rule (P(v)
// extends P(v-1), Def. 4.6, ReplicaBase::CommitPrefix). The highest
// certificate (high_cert()) is the highest prepare certificate.

#ifndef HOTSTUFF1_CORE_HOTSTUFF1_BASIC_H_
#define HOTSTUFF1_CORE_HOTSTUFF1_BASIC_H_

#include <map>
#include <memory>
#include <optional>

#include "common/replica_set.h"
#include "consensus/replica.h"

namespace hotstuff1 {

class HotStuff1BasicReplica : public ReplicaBase {
 public:
  using ReplicaBase::ReplicaBase;

  const char* Name() const override { return "HotStuff-1 (basic)"; }

  const std::optional<Certificate>& high_commit() const { return high_commit_; }

 protected:
  void OnEnterView(uint64_t view) override;
  void OnProtocolMessage(const ConsensusMessage& msg) override;

 private:
  struct LeaderViewState {
    ReplicaSet senders;
    ShareTally commit_accs;
    std::optional<VoteAccumulator> vote_acc;  // ProposeVote shares for B_v
    bool share_timer_passed = false;
    bool proposed = false;
    bool prepared = false;  // P(v) broadcast done
  };

  void HandlePropose(const ProposeMsg& msg);
  void HandleVote(const VoteMsg& msg);
  void HandlePrepare(const PrepareMsg& msg);
  void HandleNewView(const NewViewMsg& msg);
  void MaybePropose(uint64_t view);
  void Propose(uint64_t view);
  void BuildAndSend(uint64_t view);
  void ExitToNextView(uint64_t view);

  std::optional<Certificate> high_commit_;
  uint64_t voted_view_ = 0;
  uint64_t commit_voted_view_ = 0;
  std::map<uint64_t, LeaderViewState> state_;
  // Proposals buffered until we enter their view.
  std::map<uint64_t, std::shared_ptr<const ProposeMsg>> pending_proposals_;
  // Prepare messages that arrived before their proposal (rare).
  std::map<uint64_t, std::shared_ptr<const PrepareMsg>> pending_prepares_;
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_CORE_HOTSTUFF1_BASIC_H_
