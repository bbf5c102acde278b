#include "core/hotstuff1_basic.h"

namespace hotstuff1 {

void HotStuff1BasicReplica::OnEnterView(uint64_t v) {
  while (!state_.empty() && state_.begin()->first < v) state_.erase(state_.begin());
  while (!pending_proposals_.empty() && pending_proposals_.begin()->first < v) {
    pending_proposals_.erase(pending_proposals_.begin());
  }
  while (!pending_prepares_.empty() && pending_prepares_.begin()->first < v) {
    pending_prepares_.erase(pending_prepares_.begin());
  }

  auto pending = pending_proposals_.find(v);
  if (pending != pending_proposals_.end()) {
    auto msg = pending->second;
    pending_proposals_.erase(pending);
    HandlePropose(*msg);
  }

  if (IsLeaderOf(v)) {
    simulator()->After(3 * config_.delta, [this, v]() {
      if (crashed_ || view() != v) return;
      state_[v].share_timer_passed = true;
      MaybePropose(v);
    });
    MaybePropose(v);
  }
}

void HotStuff1BasicReplica::OnProtocolMessage(const ConsensusMessage& msg) {
  switch (msg.type) {
    case ConsensusMessage::Type::kPropose:
      HandlePropose(static_cast<const ProposeMsg&>(msg));
      break;
    case ConsensusMessage::Type::kVote:
      HandleVote(static_cast<const VoteMsg&>(msg));
      break;
    case ConsensusMessage::Type::kPrepare:
      HandlePrepare(static_cast<const PrepareMsg&>(msg));
      break;
    case ConsensusMessage::Type::kNewView:
      HandleNewView(static_cast<const NewViewMsg&>(msg));
      break;
    default:
      break;
  }
}

void HotStuff1BasicReplica::HandleNewView(const NewViewMsg& msg) {
  const uint64_t tv = msg.target_view;
  if (LeaderOf(tv) != id_ || tv < view()) return;
  LeaderViewState& st = state_[tv];
  if (st.proposed) return;
  if (!CheckCert(msg.high_cert)) return;
  UpdateHighCert(msg.high_cert);
  // Readiness counts the previous view's committee (see ChainedReplica).
  if (IsMember(tv == 0 ? 0 : tv - 1, msg.sender)) st.senders.Set(msg.sender);

  // Commit shares over P(v-1) aggregate into C(v-1) (Fig. 2 lines 11-12).
  if (msg.has_share && msg.share_kind == CertKind::kCommit &&
      msg.voted_id.view + 1 == tv && IsMember(msg.voted_id.view, msg.sender)) {
    auto commit_cert = CollectShare(TallyFor(st.commit_accs, msg), msg.share);
    if (commit_cert &&
        (!high_commit_ || high_commit_->block_id() < commit_cert->block_id())) {
      high_commit_ = std::move(commit_cert);
    }
  }
  MaybePropose(tv);
}

void HotStuff1BasicReplica::MaybePropose(uint64_t v) {
  if (crashed_ || view() != v || !IsLeaderOf(v)) return;
  LeaderViewState& st = state_[v];
  if (st.proposed) return;
  const uint64_t prev = v == 0 ? 0 : v - 1;  // senders finish view v-1
  if (st.senders.Count() < QuorumOf(prev)) return;
  // Fig. 2 line 8: wait for P(v-1) or n NewView messages or ShareTimer(v).
  const bool have_prev = high_cert_.block_id().view + 1 == v;
  if (!(have_prev || st.senders.Count() >= CommitteeNOf(prev) ||
        st.share_timer_passed)) {
    return;
  }
  Propose(v);
}

void HotStuff1BasicReplica::Propose(uint64_t v) {
  state_[v].proposed = true;
  if (DeferIfSlowLeader(v, [this, v] { BuildAndSend(v); })) return;
  BuildAndSend(v);
}

void HotStuff1BasicReplica::BuildAndSend(uint64_t v) {
  const BlockPtr parent = store_.GetOrNull(high_cert_.block_hash());
  if (!parent) {
    state_[v].proposed = false;
    EnsureBlock(high_cert_.block_hash(), LeaderOf(high_cert_.block_id().view));
    return;
  }
  auto msg = ProposeBlock({v, 1}, parent, high_cert_);
  msg->commit_cert = high_commit_;
  // This leader forms P(v) from the ProposeVotes for exactly this block.
  state_[v].vote_acc.emplace(CertKind::kPrepare, v, msg->block->id(),
                             msg->block->hash(), QuorumOf(v));
  Broadcast(std::move(msg));
}

void HotStuff1BasicReplica::HandlePropose(const ProposeMsg& msg) {
  ++metrics_.proposals_received;
  if (!msg.block) return;
  const uint64_t v = msg.block->view();
  if (msg.sender != LeaderOf(v)) return;
  if (!CheckCert(msg.justify)) return;
  if (msg.block->parent_hash() != msg.justify.block_hash()) return;
  if (!EnsureBlock(msg.justify.block_hash(), msg.sender)) {
    pending_proposals_[std::max<uint64_t>(v, view())] =
        std::make_shared<ProposeMsg>(msg);
    return;
  }
  const BlockPtr parent = store_.GetOrNull(msg.justify.block_hash());
  if (msg.block->height() != parent->height() + 1) return;

  store_.Put(msg.block);
  RecordJustify(msg.block->hash(), msg.justify);
  UpdateHighCert(msg.justify);

  // Traditional commit rule (Def. 4.5 / Fig. 2 line 17): the proposal
  // carries C(x); execute everything up to and including B_x.
  if (msg.commit_cert && CheckCert(*msg.commit_cert)) {
    const BlockPtr target = store_.GetOrNull(msg.commit_cert->block_hash());
    if (target) TryCommit(target);
  }

  if (v != view()) {
    if (v > view()) pending_proposals_[v] = std::make_shared<ProposeMsg>(msg);
    return;
  }
  if (voted_view_ >= v) return;
  if (v <= exited_view_) return;  // exitView(): no voting after timeout

  if (ActiveInView(v)) {
    const bool safe = msg.justify.block_id() == high_cert_.block_id() &&
                      msg.justify.block_hash() == high_cert_.block_hash();
    if (!safe && !adversary_.ColludesWith(msg.sender)) return;

    voted_view_ = v;
    SendVote(CertKind::kPrepare, *msg.block);
  }

  // A Prepare may have raced ahead of the proposal; replay it.
  auto it = pending_prepares_.find(v);
  if (it != pending_prepares_.end()) {
    auto prep = it->second;
    pending_prepares_.erase(it);
    HandlePrepare(*prep);
  }
}

void HotStuff1BasicReplica::HandleVote(const VoteMsg& msg) {
  if (msg.vote_kind != CertKind::kPrepare) return;
  const uint64_t v = msg.block_id.view;
  if (LeaderOf(v) != id_ || v != view()) return;
  if (v <= exited_view_) return;  // no late certificate formation
  if (!IsMember(v, msg.sender)) return;  // standby votes carry no weight
  LeaderViewState& st = state_[v];
  if (st.prepared || !st.vote_acc) return;
  if (auto prepare = CollectShare(*st.vote_acc, msg.share)) {
    st.prepared = true;
    UpdateHighCert(*prepare);
    auto prep = std::make_shared<PrepareMsg>(id_);
    prep->cert = std::move(*prepare);
    Broadcast(std::move(prep));
  }
}

void HotStuff1BasicReplica::HandlePrepare(const PrepareMsg& msg) {
  const Certificate& cert = msg.cert;
  const uint64_t v = cert.block_id().view;
  if (msg.sender != LeaderOf(v)) return;
  if (!CheckCert(cert)) return;

  const BlockPtr certified = store_.GetOrNull(cert.block_hash());
  if (!certified) {
    // Prepare raced ahead of its proposal; buffer until the block arrives.
    if (v >= view()) pending_prepares_[v] = std::make_shared<PrepareMsg>(msg);
    return;
  }
  UpdateHighCert(cert);

  // No-Gap rule for the basic variant (§4.1 footnote): speculation is safe
  // only when the certificate is formed in the replica's current view for
  // the current view's proposal.
  const bool no_gap = v == view();
  if (v != view() && v + 1 != view()) {
    // A stale Prepare from an older view carries no other duty for us.
    return;
  }

  // Prefix commit rule (Def. 4.6): P(v) extends P(v-1).
  CommitPrefix(certified, 1);

  SpeculateAndRespond(certified, no_gap);

  // Vote to commit (Fig. 2 lines 28-29) and move to the next view. Standby
  // replicas advance their view clock without commit power.
  if (v == view() && v > exited_view_ && commit_voted_view_ < v) {
    commit_voted_view_ = v;
    if (ActiveInView(v)) {
      SendNewView(v + 1, high_cert_, CertKind::kCommit, *certified);
    }
    ExitToNextView(v);
  }
}

void HotStuff1BasicReplica::ExitToNextView(uint64_t v) {
  pacemaker_.CompletedView(v + 1);
}

}  // namespace hotstuff1
