#include "baselines/hotstuff.h"

#include "runtime/oracle.h"

namespace hotstuff1 {

void ChainedReplica::OnEnterView(uint64_t v) {
  // Drop leader state and buffered proposals for views we have left behind.
  while (!nv_state_.empty() && nv_state_.begin()->first < v) {
    nv_state_.erase(nv_state_.begin());
  }
  while (!pending_votes_.empty() && pending_votes_.begin()->first < v) {
    pending_votes_.erase(pending_votes_.begin());
  }

  // A proposal for this view may have arrived while we were in the previous
  // one; vote on it now.
  auto pending = pending_votes_.find(v);
  if (pending != pending_votes_.end()) {
    auto msg = pending->second;
    pending_votes_.erase(pending);
    HandlePropose(*msg);  // full re-validation; votes and exits the view
    return;
  }

  if (IsLeaderOf(v)) {
    // ShareTimer(v) = entry + 3Δ (§4.2.1): the fallback deadline after which
    // the leader proposes with whatever certificates it has heard.
    simulator()->After(3 * config_.delta, [this, v]() {
      if (crashed_ || view() != v) return;
      nv_state_[v].share_timer_passed = true;
      MaybePropose(v);
    });
    MaybePropose(v);  // quorum may already be waiting
  }
}

void ChainedReplica::OnProtocolMessage(const ConsensusMessage& msg) {
  switch (msg.type) {
    case ConsensusMessage::Type::kPropose:
      HandlePropose(static_cast<const ProposeMsg&>(msg));
      break;
    case ConsensusMessage::Type::kNewView:
      HandleNewView(static_cast<const NewViewMsg&>(msg));
      break;
    default:
      break;  // chained protocols use no other message types
  }
}

void ChainedReplica::HandlePropose(const ProposeMsg& msg) {
  ++metrics_.proposals_received;
  if (!msg.block) return;
  const uint64_t v = msg.block->view();
  if (msg.sender != LeaderOf(v)) return;
  if (msg.block->slot() != 1) return;
  if (!CheckCert(msg.justify)) return;
  // Well-formedness: the proposal must extend the block its certificate
  // certifies.
  if (msg.block->parent_hash() != msg.justify.block_hash()) return;

  if (!EnsureBlock(msg.justify.block_hash(), msg.sender)) {
    // Parent missing: stash and retry once the fetch completes (§4.2).
    pending_votes_[v] = std::make_shared<ProposeMsg>(msg);
    return;
  }
  const BlockPtr certified = store_.GetOrNull(msg.justify.block_hash());
  if (msg.block->height() != certified->height() + 1) return;

  store_.Put(msg.block);
  RecordJustify(msg.block->hash(), msg.justify);
  UpdateHighCert(msg.justify);
  ProcessCertificate(msg.justify, certified, msg.block->id());

  if (v == view()) {
    VoteOn(msg);
    // Fig. 4 line 19: exitView() runs at the end of the Propose event even
    // when the vote-safety check declined to vote (e.g. the next leader
    // already holds a higher certificate it formed from vote shares).
    if (view() == v && v > exited_view_) ExitView(v);
  } else if (v > view()) {
    pending_votes_[v] = std::make_shared<ProposeMsg>(msg);
  }
}

void ChainedReplica::VoteOn(const ProposeMsg& msg) {
  const uint64_t v = msg.block->view();
  if (!ActiveInView(v)) return;  // standby: learn and execute, never vote
  if (v != view() || voted_view_ >= v) return;
  if (v <= exited_view_) return;  // exitView(): no voting after timeout

  // Vote-safety (Fig. 4 line 16): vote only when the proposal extends a
  // certificate not lower than our highest known one. UpdateHighCert already
  // ran, so safety is equivalent to the justify *being* the highest.
  const bool safe = msg.justify.block_id() == high_cert_.block_id() &&
                    msg.justify.block_hash() == high_cert_.block_hash();
  if (!safe && !adversary_.ColludesWith(msg.sender)) return;

  voted_view_ = v;
  ++metrics_.votes_sent;
  SendNewView(v + 1, high_cert_, CertKind::kPrepare, *msg.block);
  ExitView(v);  // callers re-check view() before their own ExitView
}

void ChainedReplica::ExitView(uint64_t v) { pacemaker_.CompletedView(v + 1); }

void ChainedReplica::HandleNewView(const NewViewMsg& msg) {
  const uint64_t tv = msg.target_view;
  if (LeaderOf(tv) != id_) return;
  if (tv < view()) return;
  LeaderViewState& st = nv_state_[tv];
  if (st.proposed) return;
  if (!CheckCert(msg.high_cert)) return;
  UpdateHighCert(msg.high_cert);
  // Readiness counts the *previous* view's committee (the replicas that are
  // finishing view tv-1 and reporting in); at an epoch boundary those are
  // the outgoing members.
  if (IsMember(tv == 0 ? 0 : tv - 1, msg.sender)) st.senders.Set(msg.sender);

  // A tail-forking leader pretends it received no votes for the previous
  // proposal (Example 6.2) and never forms P(v-1).
  const bool ignore_shares = adversary_.TailForks(Now());
  if (msg.has_share && !ignore_shares &&
      msg.share_kind == CertKind::kPrepare && msg.voted_id.view + 1 == tv &&
      IsMember(msg.voted_id.view, msg.sender)) {
    if (auto formed = CollectShare(TallyFor(st.accs, msg), msg.share)) {
      st.formed = true;
      UpdateHighCert(*formed);
    }
  }
  MaybePropose(tv);
}

void ChainedReplica::MaybePropose(uint64_t v) {
  if (crashed_ || view() != v || v <= exited_view_ || !IsLeaderOf(v)) return;
  LeaderViewState& st = nv_state_[v];
  if (st.proposed || st.waiting_block) return;
  const uint64_t prev = v == 0 ? 0 : v - 1;  // senders finish view v-1
  if (st.senders.Count() < QuorumOf(prev)) return;

  // A tail-forking leader never waits for P(v-1): it proposes on a quorum.
  const bool ready = st.formed || st.senders.Count() >= CommitteeNOf(prev) ||
                     st.share_timer_passed || adversary_.TailForks(Now());
  if (!ready) return;
  Propose(v);
}

void ChainedReplica::Propose(uint64_t v) {
  LeaderViewState& st = nv_state_[v];
  st.proposed = true;
  if (DeferIfSlowLeader(v, [this, v] { BuildAndSend(v, high_cert_); })) return;

  if (adversary_.Equivocates(Now()) && high_cert_.block_id().view + 1 == v) {
    // §7.3 Rollback: equivocate across P(v-1) and P(v-2) so that a subset of
    // correct replicas speculates a block the winning branch abandons.
    const Certificate* prev = JustifyOf(high_cert_.block_hash());
    const BlockPtr parent_a = store_.GetOrNull(high_cert_.block_hash());
    const BlockPtr parent_b = prev ? store_.GetOrNull(prev->block_hash()) : nullptr;
    if (parent_a != nullptr && parent_b != nullptr) {
      // One proposal step, two blocks from the same batch: the honest one
      // extends P(v-1), the conflicting one P(v-2).
      auto msg_a = ProposeBlock({v, 1}, parent_a, high_cert_);
      auto msg_b = BuildProposal({v, 1}, parent_b, *prev, msg_a->block->txns());

      // The victims get the honest branch, everyone else the conflicting
      // one. The mask is the invariant oracle's exemption list too.
      const std::vector<bool>& mask_a = *adversary_.victims;
      std::vector<bool> mask_b(config_.n);
      for (ReplicaId r = 0; r < config_.n; ++r) mask_b[r] = !mask_a[r];
      // Record the campaign before the sends so that even a same-tick victim
      // rollback finds its justification outstanding.
      if (oracle_) oracle_->OnEquivocationSent(id_, v);
      SendMasked(mask_a, msg_a);
      SendMasked(mask_b, msg_b);
      return;
    }
    // Attack prerequisites missing; behave honestly below.
  }

  BuildAndSend(v, high_cert_);
}

void ChainedReplica::BuildAndSend(uint64_t v, const Certificate& justify) {
  LeaderViewState& st = nv_state_[v];
  const BlockPtr parent = store_.GetOrNull(justify.block_hash());
  if (!parent) {
    st.proposed = false;
    st.waiting_block = true;
    EnsureBlock(justify.block_hash(), LeaderOf(justify.block_id().view));
    return;
  }
  st.proposed = true;
  Broadcast(ProposeBlock({v, 1}, parent, justify));
}

void ChainedReplica::OnBlockFetched(const BlockPtr& block) {
  // Retry buffered proposals whose parent just arrived. Collect first:
  // HandlePropose may advance the view, which prunes pending_votes_ and
  // would invalidate a live iterator.
  std::vector<std::shared_ptr<const ProposeMsg>> ready;
  for (auto it = pending_votes_.begin(); it != pending_votes_.end();) {
    if (it->second->justify.block_hash() == block->hash()) {
      ready.push_back(it->second);
      it = pending_votes_.erase(it);
    } else {
      ++it;
    }
  }
  for (const auto& msg : ready) HandlePropose(*msg);
  // Retry a leader proposal that was waiting on its parent.
  const uint64_t v = view();
  if (IsLeaderOf(v)) {
    auto it = nv_state_.find(v);
    if (it != nv_state_.end() && it->second.waiting_block) {
      it->second.waiting_block = false;
      MaybePropose(v);
    }
  }
}

void HotStuffReplica::ProcessCertificate(const Certificate& /*justify*/,
                                         const BlockPtr& certified,
                                         const BlockId& /*proposal*/) {
  // Chained HotStuff: commit the tail of a 3-chain with consecutive views.
  CommitPrefix(certified, 2);
}

}  // namespace hotstuff1
