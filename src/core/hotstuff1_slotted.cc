#include "core/hotstuff1_slotted.h"

#include <algorithm>

namespace hotstuff1 {

bool HotStuff1SlottedReplica::FormedInView(const Certificate& cert, uint64_t v) {
  if (cert.kind() == CertKind::kNewSlot) return cert.view() == v;
  if (cert.kind() == CertKind::kNewView) return cert.formed_view() == v;
  return false;
}

void HotStuff1SlottedReplica::LearnCert(const Certificate& cert) {
  if (!cert.IsGenesis()) certified_.insert(cert.block_hash());
  UpdateHighCert(cert);
}

void HotStuff1SlottedReplica::RememberChild(const BlockPtr& block) {
  if (block->IsGenesis()) return;
  const auto range = children_.equal_range(block->parent_hash());
  for (auto it = range.first; it != range.second; ++it) {
    if (it->second->hash() == block->hash()) return;
  }
  children_.emplace(block->parent_hash(), block);
}

BlockPtr HotStuff1SlottedReplica::LowestUncertifiedChild(
    const Hash256& parent_hash) const {
  // Def. 6.3 pins down the carry block exactly: for a New-Slot certificate
  // P(s, v) it is B_{s+1, v}; for a New-View certificate with annotation fv
  // it is B_{1, fv}. Both are children of the certified block.
  BlockId expected;
  if (high_cert_.kind() == CertKind::kNewSlot) {
    expected = BlockId{high_cert_.view(), high_cert_.slot() + 1};
  } else if (high_cert_.kind() == CertKind::kNewView) {
    expected = BlockId{high_cert_.formed_view(), 1};
  } else {
    return nullptr;
  }
  const auto range = children_.equal_range(parent_hash);
  for (auto it = range.first; it != range.second; ++it) {
    if (certified_.count(it->second->hash())) continue;
    if (it->second->id() == expected) return it->second;
  }
  return nullptr;
}

void HotStuff1SlottedReplica::OnEnterView(uint64_t v) {
  next_slot_ = 1;
  slot_view_ = v;
  while (!lstate_.empty() && lstate_.begin()->first < v) lstate_.erase(lstate_.begin());
  while (!pending_proposals_.empty() && pending_proposals_.begin()->first < v) {
    pending_proposals_.erase(pending_proposals_.begin());
  }

  auto pending = pending_proposals_.find(v);
  if (pending != pending_proposals_.end()) {
    auto msgs = std::move(pending->second);
    pending_proposals_.erase(pending);
    for (const auto& m : msgs) HandlePropose(*m);
  }

  if (IsLeaderOf(v)) {
    simulator()->After(3 * config_.delta, [this, v]() {
      if (crashed_ || view() != v) return;
      lstate_[v].share_timer_passed = true;
      MaybeProposeFirst(v);
    });
    MaybeProposeFirst(v);
  }
}

void HotStuff1SlottedReplica::OnProtocolMessage(const ConsensusMessage& msg) {
  switch (msg.type) {
    case ConsensusMessage::Type::kPropose:
      HandlePropose(static_cast<const ProposeMsg&>(msg));
      break;
    case ConsensusMessage::Type::kNewView:
      HandleNewView(static_cast<const NewViewMsg&>(msg));
      break;
    case ConsensusMessage::Type::kVote:
      HandleNewSlotVote(static_cast<const VoteMsg&>(msg));
      break;
    case ConsensusMessage::Type::kReject:
      HandleReject(static_cast<const RejectMsg&>(msg));
      break;
    default:
      break;
  }
}

// --- leader side --------------------------------------------------------------

void HotStuff1SlottedReplica::HandleNewView(const NewViewMsg& msg) {
  const uint64_t tv = msg.target_view;
  if (LeaderOf(tv) != id_ || tv < view()) return;
  LeaderState& st = lstate_[tv];
  if (!CheckCert(msg.high_cert)) return;
  LearnCert(msg.high_cert);
  // NewView senders/shares are replicas finishing view tv-1, so membership
  // and quorum arithmetic follow tv-1's committee (outgoing members at an
  // epoch boundary hand over to the incoming leader).
  const uint64_t prev = tv == 0 ? 0 : tv - 1;
  if (IsMember(prev, msg.sender)) st.nv_senders.Set(msg.sender);

  if (msg.has_share && msg.share_kind == CertKind::kNewView &&
      IsMember(prev, msg.sender)) {
    if (st.first_proposed) {
      // Too late to shape the first slot, and no certificate may form from
      // it; the share is still verified on receipt.
      CheckVote(CertKind::kNewView, tv, msg.voted_id, msg.voted_hash, msg.share);
    } else if (auto formed = CollectShare(TallyFor(st.nv_accs, msg), msg.share)) {
      st.formed_nv = std::move(formed);
      LearnCert(*st.formed_nv);
    }
  }

  // Trusted previous-leader fast path (§6.3): a NewView from L_{tv-1}
  // containing a certificate formed in view tv-1.
  if (msg.sender == LeaderOf(tv - 1) && FormedInView(msg.high_cert, tv - 1)) {
    st.prev_leader_cert = msg.high_cert;
  }
  MaybeProposeFirst(tv);
}

void HotStuff1SlottedReplica::MaybeProposeFirst(uint64_t v) {
  if (crashed_ || view() != v || v <= exited_view_ || !IsLeaderOf(v)) return;
  LeaderState& st = lstate_[v];
  if (st.first_proposed) return;

  const bool byzantine_suppress = adversary_.TailForks(Now()) ||
                                  adversary_.Equivocates(Now());

  // Trusted fast path: propose at network speed behind a correct previous
  // leader (§6.3).
  if (config_.trusted_leader_enabled && !byzantine_suppress &&
      st.prev_leader_cert && !distrusted_[LeaderOf(v - 1)]) {
    if (ProposeFirstSlot(v)) return;
  }

  // Condition (1): formed a New-View certificate.
  if (st.formed_nv && !byzantine_suppress) {
    if (ProposeFirstSlot(v)) return;
  }

  // All the readiness arithmetic counts view v-1's committee (the NewView
  // senders), not the allocated pool.
  const uint64_t prev = v == 0 ? 0 : v - 1;
  const uint32_t prev_n = CommitteeNOf(prev);
  const uint32_t prev_f = CommitteeFOf(prev);
  if (st.nv_senders.Count() < QuorumOf(prev)) return;

  // Condition (2): heard from everyone. Condition (3): ShareTimer passed.
  bool ready = st.nv_senders.Count() >= prev_n || st.share_timer_passed;

  // Condition (4): with k replicas unheard (1 <= k <= f), fewer than f+1-k
  // votes exist for any slot above our highest certificate, so no higher
  // certificate can exist.
  if (!ready) {
    const uint32_t k = prev_n - st.nv_senders.Count();
    if (k >= 1 && k <= prev_f) {
      size_t max_higher = 0;
      for (const auto& [hash, acc] : st.nv_accs) {
        (void)hash;
        if (high_cert_.block_id() < acc.block_id()) {
          max_higher = std::max(max_higher, acc.count());
        }
      }
      if (max_higher < prev_f + 1 - k) ready = true;
    }
  }
  if (ready) ProposeFirstSlot(v);
}

bool HotStuff1SlottedReplica::ProposeFirstSlot(uint64_t v) {
  LeaderState& st = lstate_[v];

  // Way (i): extend our own New-View certificate; no carry needed (Case 1).
  const bool byzantine_suppress = adversary_.TailForks(Now()) ||
                                  adversary_.Equivocates(Now());
  if (st.formed_nv && !byzantine_suppress &&
      !(st.formed_nv->block_id() < high_cert_.block_id())) {
    const BlockPtr parent = store_.GetOrNull(st.formed_nv->block_hash());
    if (!parent) {
      EnsureBlock(st.formed_nv->block_hash(), LeaderOf(st.formed_nv->view()));
      return false;
    }
    st.first_proposed = true;
    SendProposal(v, 1, *st.formed_nv, parent, nullptr);
    return true;
  }

  // Way (ii): extend the highest certificate and carry the lowest
  // uncertified block extending it (Cases 2 and 3). Genesis needs no carry.
  const BlockPtr certified = store_.GetOrNull(high_cert_.block_hash());
  if (!certified) {
    EnsureBlock(high_cert_.block_hash(), LeaderOf(high_cert_.view()));
    return false;
  }
  BlockPtr carry = LowestUncertifiedChild(high_cert_.block_hash());
  if (!carry && !high_cert_.IsGenesis()) {
    // No uncertified extension known. If nobody voted above our certificate
    // there is genuinely nothing to carry, which only Case 1 could prove;
    // wait for more NewView messages (or the timer) instead of proposing an
    // unprovable first slot.
    return false;
  }
  st.first_proposed = true;
  if (carry) {
    SendProposal(v, 1, high_cert_, carry, carry);
  } else {
    SendProposal(v, 1, high_cert_, certified, nullptr);
  }
  return true;
}

void HotStuff1SlottedReplica::SendProposal(uint64_t v, uint32_t slot,
                                           const Certificate& justify,
                                           BlockPtr parent, BlockPtr carry) {
  LeaderState& st = lstate_[v];
  auto msg = ProposeBlock({v, slot}, parent, justify, carry);
  RememberChild(msg->block);
  if (carry) RecordJustify(carry->hash(), justify);
  st.slots_proposed = slot;
  st.slot_acc.emplace(CertKind::kNewSlot, v, msg->block->id(), msg->block->hash(),
                      QuorumOf(v));
  Broadcast(std::move(msg));
}

void HotStuff1SlottedReplica::HandleNewSlotVote(const VoteMsg& msg) {
  if (msg.vote_kind != CertKind::kNewSlot) return;
  const uint64_t v = msg.block_id.view;
  if (LeaderOf(v) != id_ || v != view()) return;
  if (!IsMember(v, msg.sender)) return;  // standby votes carry no weight
  // After timing out of v, the leader must not form further view-v
  // certificates: its NewView message already fixed its highest
  // certificate, and a later one would contradict it (and could be
  // tail-forked without any replica noticing).
  if (v <= exited_view_) return;
  LeaderState& st = lstate_[v];
  if (!st.slot_acc || st.slot_acc->block_hash() != msg.block_hash) return;
  if (!CheckCert(msg.high_cert)) return;
  LearnCert(msg.high_cert);
  if (auto formed = CollectShare(*st.slot_acc, msg.share)) {
    LearnCert(*formed);
    ProposeNextSlot(v, *formed);
  }
}

void HotStuff1SlottedReplica::ProposeNextSlot(uint64_t v, const Certificate& formed) {
  if (crashed_ || view() != v) return;
  LeaderState& st = lstate_[v];
  if (config_.max_slots > 0 && st.slots_proposed >= config_.max_slots) return;
  const BlockPtr parent = store_.GetOrNull(formed.block_hash());
  if (!parent) return;
  SendProposal(v, formed.slot() + 1, formed, parent, nullptr);
}

void HotStuff1SlottedReplica::HandleReject(const RejectMsg& msg) {
  if (LeaderOf(msg.view) != id_) return;
  ++metrics_.rejects_sent;  // counted on the leader as "rejections observed"
  if (!CheckCert(msg.high_cert)) return;
  // §6.3: if the rejecting replica holds a certificate formed in view v-1
  // that is higher than the one the (initially trusted) previous leader sent
  // us, the previous leader concealed it: distrust it from now on.
  auto it = lstate_.find(msg.view);
  if (it == lstate_.end() || !it->second.prev_leader_cert) return;
  if (FormedInView(msg.high_cert, msg.view - 1) &&
      it->second.prev_leader_cert->block_id() < msg.high_cert.block_id()) {
    distrusted_[LeaderOf(msg.view - 1)] = true;
  }
  LearnCert(msg.high_cert);
}

// --- backup side ---------------------------------------------------------------

bool HotStuff1SlottedReplica::SafeSlot(const ProposeMsg& msg,
                                       const BlockPtr& carry) const {
  const uint32_t s = msg.block->slot();
  const uint64_t v = msg.block->view();
  const Certificate& p = msg.justify;
  if (s == 1 && p.IsGenesis()) return true;  // hard-coded bootstrap
  if (s == 1 && p.kind() == CertKind::kNewView && p.formed_view() == v) {
    return true;  // Case 1
  }
  if (s == 1 && p.kind() == CertKind::kNewView && p.formed_view() < v && carry &&
      carry->slot() == 1 && carry->view() == p.formed_view()) {
    return true;  // Case 2
  }
  if (s == 1 && p.kind() == CertKind::kNewSlot && carry &&
      carry->slot() == p.slot() + 1 && carry->view() == p.view()) {
    return true;  // Case 3
  }
  if (s > 1 && p.kind() == CertKind::kNewSlot && p.slot() == s - 1 && p.view() == v) {
    return true;  // Case 4
  }
  return false;
}

void HotStuff1SlottedReplica::HandlePropose(const ProposeMsg& msg) {
  ++metrics_.proposals_received;
  if (!msg.block) return;
  const uint64_t v = msg.block->view();
  const uint32_t s = msg.block->slot();
  if (msg.sender != LeaderOf(v)) return;
  if (!CheckCert(msg.justify)) return;

  // Resolve the carry block (attached, or already known).
  BlockPtr carry;
  if (msg.block->has_carry()) {
    carry = msg.carry ? msg.carry : store_.GetOrNull(msg.block->carry_hash());
    if (!carry || carry->hash() != msg.block->carry_hash()) return;
    // Chain shape for way (ii): block -> carry -> justified block.
    if (msg.block->parent_hash() != carry->hash()) return;
    if (carry->parent_hash() != msg.justify.block_hash()) return;
    store_.Put(carry);
    RememberChild(carry);
    RecordJustify(carry->hash(), msg.justify);
  } else {
    if (msg.block->parent_hash() != msg.justify.block_hash()) return;
  }
  const BlockPtr parent = store_.GetOrNull(msg.block->parent_hash());
  if (!parent) {
    EnsureBlock(msg.block->parent_hash(), msg.sender);
    pending_proposals_[std::max<uint64_t>(v, view())].push_back(
        std::make_shared<ProposeMsg>(msg));
    return;
  }
  if (msg.block->height() != parent->height() + 1) return;

  store_.Put(msg.block);
  RememberChild(msg.block);
  RecordJustify(msg.block->hash(), msg.justify);
  LearnCert(msg.justify);

  // Prefix commit over (view, slot) positions (§6.1 Commit Rule), then the
  // slotted No-Gap rule (Fig. 7 line 17): the certified block is from the
  // immediately preceding slot, or the last certificate of the immediately
  // preceding view.
  if (const BlockPtr certified = store_.GetOrNull(msg.justify.block_hash())) {
    CommitPrefix(certified, 1);
    SpeculateAndRespond(certified, msg.justify.block_id().Precedes(msg.block->id()));
  }

  // Voting.
  if (v != view()) {
    if (v > view()) {
      pending_proposals_[v].push_back(std::make_shared<ProposeMsg>(msg));
    }
    return;
  }
  if (v <= exited_view_) return;  // exitView(): voting disabled after timeout
  if (s < next_slot_ || slot_view_ != v) return;  // already voted this slot

  if (!ActiveInView(v)) {
    next_slot_ = s + 1;  // standby: track slot consumption, no vote/reject power
    return;
  }

  const bool lex_ok = high_cert_.block_id() <= msg.justify.block_id();
  if ((SafeSlot(msg, carry) && lex_ok) || adversary_.ColludesWith(msg.sender)) {
    next_slot_ = s + 1;
    high_voted_ = msg.block;
    SendVote(CertKind::kNewSlot, *msg.block, high_cert_);
  } else {
    next_slot_ = s + 1;  // Fig. 7 line 26: the slot is consumed either way
    ++metrics_.rejects_sent;
    auto rej = std::make_shared<RejectMsg>(id_);
    rej->view = v;
    rej->slot = s;
    rej->high_cert = high_cert_;
    SendTo(LeaderOf(v), std::move(rej));
  }
}

void HotStuff1SlottedReplica::OnBlockFetched(const BlockPtr& block) {
  RememberChild(block);
  // Re-run any proposals waiting on this block.
  auto it = pending_proposals_.find(view());
  if (it != pending_proposals_.end()) {
    auto msgs = std::move(it->second);
    pending_proposals_.erase(it);
    for (const auto& m : msgs) HandlePropose(*m);
  }
  if (IsLeaderOf(view())) MaybeProposeFirst(view());
}

}  // namespace hotstuff1
