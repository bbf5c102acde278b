#include "consensus/replica.h"

#include "common/logging.h"
#include "core/speculation.h"
#include "runtime/oracle.h"

namespace hotstuff1 {

ReplicaBase::ReplicaBase(ReplicaId id, const ConsensusConfig& config,
                         sim::Network* net, const KeyRegistry* registry,
                         TransactionSource* source, ResponseSink* sink,
                         KvState initial_state)
    : id_(id),
      config_(config),
      auth_model_(config.auth_model()),
      net_(net),
      registry_(registry),
      signer_(registry, id),
      source_(source),
      sink_(sink),
      ledger_(&store_, std::move(initial_state)),
      pacemaker_(
          net->simulator(), registry, Signer(registry, id), config_,
          Pacemaker::Callbacks{
              [this](uint64_t v) {
                if (crashed_) return;
                ++metrics_.views_entered;
                if (oracle_) oracle_->OnViewEntered(id_, v);
                MaybeBreakReconfig(v);
                if (crashed_) return;
                if (v == 1 && ActiveInView(1)) SendViewChange(1);  // bootstrap
                OnEnterView(v);
              },
              [this](uint64_t v) {
                if (crashed_) return;
                ++metrics_.timeouts;
                exited_view_ = std::max(exited_view_, v);
                // Standby replicas advance their view clock but hold no
                // NewView power.
                if (ActiveInView(v + 1)) SendViewChange(v + 1);
                pacemaker_.CompletedView(v + 1);
              },
              [this](ReplicaId to, std::shared_ptr<WishMsg> m) {
                SendTo(to, std::move(m));
              },
              [this](std::shared_ptr<TimeoutCertMsg> m) { Broadcast(std::move(m)); },
              [this](ReplicaId to, std::shared_ptr<TimeoutCertMsg> m) {
                SendTo(to, std::move(m));
              },
          }) {
  net_->SetHandler(id_, [this](sim::NodeId from, const sim::NetMessagePtr& msg) {
    HandleMessage(from, msg);
  });
}

void ReplicaBase::MaybeBreakReconfig(uint64_t view) {
  if (!config_.test_break_reconfig) return;
  const CommitteeSchedule& committee = config_.reconfig;
  const uint32_t epoch = committee.EpochOf(view);
  if (epoch == 0 || view % committee.views_per_epoch != 0) return;
  const Committee& prev = committee.AtEpoch(epoch - 1);
  const Committee& cur = committee.AtEpoch(epoch);
  if (!prev.Contains(id_) || cur.Contains(id_)) return;
  // Voted out: commit a fabricated block on the committed tip at a height
  // the new committee will also commit, then halt. Halting keeps the local
  // ledger self-consistent (a later honest commit at this height would trip
  // the Ledger's own fork check and abort the process) and removes this
  // replica from the end-of-run CheckSafety comparison — exactly the blind
  // spot the oracle's cross-epoch lattice covers.
  const BlockPtr tip = ledger_.committed_tip();
  auto forged = std::make_shared<Block>(BlockId{view, 1}, tip->hash(),
                                        tip->height() + 1, id_,
                                        std::vector<Transaction>{});
  store_.Put(forged);
  DeliverCommits(ledger_.CommitChain(forged));
  SetCrashed();
}

void ReplicaBase::Start() { pacemaker_.Start(); }

void ReplicaBase::HandleMessage(sim::NodeId from, const sim::NetMessagePtr& raw) {
  if (crashed_) return;
  const auto* msg = static_cast<const ConsensusMessage*>(raw.get());
  // Channel authentication: the claimed sender must match the wire origin
  // (a faulty replica cannot impersonate another replica, §2).
  if (static_cast<ReplicaId>(from) != msg->sender) return;
  ChargeCpu(config_.costs.per_message_us);
  switch (msg->type) {
    case ConsensusMessage::Type::kWish:
      pacemaker_.OnWish(static_cast<const WishMsg&>(*msg));
      return;
    case ConsensusMessage::Type::kTimeoutCert:
      pacemaker_.OnTimeoutCert(static_cast<const TimeoutCertMsg&>(*msg));
      return;
    case ConsensusMessage::Type::kFetchRequest:
      HandleFetchRequest(static_cast<const FetchRequestMsg&>(*msg));
      return;
    case ConsensusMessage::Type::kFetchResponse:
      HandleFetchResponse(static_cast<const FetchResponseMsg&>(*msg));
      return;
    default:
      OnProtocolMessage(*msg);
      return;
  }
}

// Every consensus send crosses one of these three methods (pacemaker traffic
// routes through the Callbacks lambdas above), so stamping here is exhaustive:
// the authenticator size model is attached on the sender's shard before
// Network::Send reads WireSize, and receivers only ever read it.

bool ReplicaBase::SuppressSendTo(ReplicaId to) const {
  if (to == id_ || !adversary_.schedule) return false;
  const SimTime now = Now();
  if (adversary_.Withholds(now)) return true;
  if (adversary_.TargetsLeader(now)) {
    const uint64_t v = view();
    if (to == LeaderOf(v) || to == LeaderOf(v + 1)) return true;
  }
  return false;
}

void ReplicaBase::SendTo(ReplicaId to, ConsensusMessagePtr msg) {
  if (crashed_ || SuppressSendTo(to)) return;
  msg->StampAuth(auth_model_);
  net_->Send(id_, to, std::move(msg));
}

void ReplicaBase::Broadcast(const ConsensusMessagePtr& msg, bool include_self) {
  if (crashed_) return;
  msg->StampAuth(auth_model_);
  if (adversary_.schedule) {
    // Per-destination so the suppression filter applies; Network::Broadcast
    // is the same loop without the filter.
    for (ReplicaId to = 0; to < config_.n; ++to) {
      if (to == id_ && !include_self) continue;
      if (SuppressSendTo(to)) continue;
      net_->Send(id_, to, msg);
    }
    return;
  }
  net_->Broadcast(id_, msg, include_self);
}

void ReplicaBase::SendMasked(const std::vector<bool>& mask,
                             const ConsensusMessagePtr& msg) {
  if (crashed_) return;
  msg->StampAuth(auth_model_);
  for (ReplicaId to = 0; to < config_.n; ++to) {
    if (mask[to] && !SuppressSendTo(to)) net_->Send(id_, to, msg);
  }
}

Signature ReplicaBase::SignVote(CertKind kind, uint64_t context_view,
                                const BlockId& block_id, const Hash256& block_hash) {
  ChargeCpu(config_.costs.sign_us);
  return signer_.Sign(DomainFor(kind),
                      VoteDigest(kind, context_view, block_id, block_hash));
}

bool ReplicaBase::CheckVote(CertKind kind, uint64_t context_view,
                            const BlockId& block_id, const Hash256& block_hash,
                            const Signature& sig) {
  ChargeCpu(config_.costs.verify_us);
  return registry_->Verify(sig, DomainFor(kind),
                           VoteDigest(kind, context_view, block_id, block_hash));
}

void ReplicaBase::SendNewView(uint64_t target, const Certificate& high_cert) {
  auto nv = std::make_shared<NewViewMsg>(id_);
  nv->target_view = target;
  nv->high_cert = high_cert;
  SendTo(LeaderOf(target), std::move(nv));
}

void ReplicaBase::SendNewView(uint64_t target, const Certificate& high_cert,
                              CertKind kind, const Block& voted) {
  auto nv = std::make_shared<NewViewMsg>(id_);
  nv->target_view = target;
  nv->high_cert = high_cert;
  nv->has_share = true;
  nv->share_kind = kind;
  nv->voted_id = voted.id();
  nv->voted_hash = voted.hash();
  nv->share = SignVote(kind, ShareContextView(kind, voted.view(), target),
                       voted.id(), voted.hash());
  SendTo(LeaderOf(target), std::move(nv));
}

void ReplicaBase::SendVote(CertKind kind, const Block& block,
                           const Certificate& high_cert) {
  ++metrics_.votes_sent;
  auto vote = std::make_shared<VoteMsg>(id_);
  vote->vote_kind = kind;
  vote->block_id = block.id();
  vote->block_hash = block.hash();
  vote->share = SignVote(kind, block.view(), block.id(), block.hash());
  vote->high_cert = high_cert;
  SendTo(LeaderOf(block.view()), std::move(vote));
}

std::optional<Certificate> ReplicaBase::CollectShare(VoteAccumulator& acc,
                                                     const Signature& share) {
  ChargeCpu(config_.costs.verify_us);
  if (!registry_->Verify(share, DomainFor(acc.kind()), acc.digest()) ||
      !acc.Add(share)) {
    return std::nullopt;
  }
  Certificate cert = acc.Build(acc.context_view());
  if (oracle_) oracle_->OnCertificateFormed(id_, cert);
  return cert;
}

VoteAccumulator& ReplicaBase::TallyFor(ShareTally& tally, const NewViewMsg& msg) {
  const CertKind kind = msg.share_kind;
  const uint64_t block_view = msg.voted_id.view;
  const uint64_t tv = msg.target_view;
  return tally
      .try_emplace(msg.voted_hash, kind, ShareContextView(kind, block_view, tv),
                   msg.voted_id, msg.voted_hash, ShareQuorum(kind, block_view, tv))
      .first->second;
}

uint32_t ReplicaBase::ShareQuorum(CertKind kind, uint64_t block_view,
                                  uint64_t entered_view) const {
  // Quorum arithmetic follows the committee of the view the shares were cast
  // in. NewView shares sign the view being *entered* (their context view) but
  // are cast by the previous view's committee — at a growth boundary the new,
  // larger quorum must not reject a certificate the old committee
  // legitimately formed.
  if (kind != CertKind::kNewView) return QuorumOf(block_view);
  return QuorumOf(entered_view == 0 ? 0 : entered_view - 1);
}

std::shared_ptr<ProposeMsg> ReplicaBase::ProposeBlock(const BlockId& id,
                                                      const BlockPtr& parent,
                                                      const Certificate& justify,
                                                      BlockPtr carry) {
  ChargeCpu(config_.costs.propose_base_us);
  ++metrics_.slots_proposed;
  if (id.slot == 1) ++metrics_.blocks_proposed;
  return BuildProposal(id, parent, justify, DrawBatch(), std::move(carry));
}

std::shared_ptr<ProposeMsg> ReplicaBase::BuildProposal(const BlockId& id,
                                                       const BlockPtr& parent,
                                                       const Certificate& justify,
                                                       std::vector<Transaction> txns,
                                                       BlockPtr carry) {
  auto block = std::make_shared<Block>(id, parent->hash(), parent->height() + 1,
                                       id_, std::move(txns),
                                       carry ? carry->hash() : Hash256{});
  store_.Put(block);
  RecordJustify(block->hash(), justify);
  auto msg = std::make_shared<ProposeMsg>(id_);
  msg->block = std::move(block);
  msg->justify = justify;
  msg->carry = std::move(carry);
  return msg;
}

bool ReplicaBase::CheckCert(const Certificate& cert) {
  if (cert.IsGenesis()) return true;
  const Hash256 key = cert.SharesDigest();
  if (verified_certs_.count(key)) return true;
  ChargeCpu(config_.costs.verify_us * static_cast<SimTime>(cert.sigs().size()));
  const Status st = cert.Verify(
      *registry_, ShareQuorum(cert.kind(), cert.view(), cert.formed_view()), key);
  if (!st.ok()) {
    HS1_LOG_WARN() << "replica " << id_ << ": bad certificate " << cert.ToString()
                   << ": " << st;
    return false;
  }
  verified_certs_.insert(key);
  return true;
}

std::vector<Transaction> ReplicaBase::DrawBatch() {
  return source_->DrawBatch(id_, config_.batch_size, Now());
}

void ReplicaBase::RespondToClients(const BlockPtr& block,
                                   const std::vector<uint64_t>& results,
                                   bool speculative) {
  if (crashed_ || block->txns().empty()) return;
  if (oracle_ && speculative) oracle_->OnSpeculativeResponse(id_, block);
  sink_->OnBlockResponse(id_, block, results, speculative, Now());
}

void ReplicaBase::DeliverCommits(const std::vector<ExecResult>& committed) {
  for (const ExecResult& res : committed) {
    ++metrics_.blocks_committed;
    metrics_.txns_committed += res.block->txns().size();
    if (oracle_) oracle_->OnBlockCommitted(id_, res.block);
    if (!res.was_speculated) {
      // Execution happened just now, at commit time; charge it.
      ChargeCpu(config_.costs.ExecCost(res.block->txns().size()));
      RespondToClients(res.block, res.txn_results, /*speculative=*/false);
    }
  }
}

template <typename Step>
void ReplicaBase::ReportingRollback(uint64_t chain_view, Step step) {
  const uint64_t events = ledger_.rollback_events();
  const uint64_t blocks = ledger_.blocks_rolled_back();
  step();
  if (oracle_ && ledger_.rollback_events() != events) {
    oracle_->OnRollback(id_, ledger_.blocks_rolled_back() - blocks, chain_view);
  }
}

void ReplicaBase::SpeculateAndRespond(const BlockPtr& certified, bool no_gap) {
  const SpeculationPolicy policy{.enabled = config_.speculation_enabled};
  SpeculationOutcome out;
  ReportingRollback(certified->id().view, [&] {
    out = TrySpeculate(&ledger_, store_, certified, no_gap, policy);
  });
  for (const SpeculatedBlock& sb : out.executed) {
    ++metrics_.blocks_speculated;
    ChargeCpu(config_.costs.ExecCost(sb.block->txns().size()));
    RespondToClients(sb.block, sb.results, /*speculative=*/true);
  }
}

void ReplicaBase::CommitPrefix(BlockPtr certified, int links) {
  for (; links > 0; --links) {
    const Certificate* justify = JustifyOf(certified->hash());
    if (justify == nullptr || !justify->block_id().Precedes(certified->id())) return;
    certified = store_.GetOrNull(justify->block_hash());
    if (!certified) return;
  }
  TryCommit(certified);
}

void ReplicaBase::TryCommit(const BlockPtr& target) {
  if (target->height() <= ledger_.committed_height()) return;
  // Verify chain connectivity before committing; a gap means we are missing
  // an ancestor (e.g. a concealed proposal) and must fetch it first.
  BlockPtr cur = target;
  while (cur->height() > ledger_.committed_height()) {
    const BlockPtr parent = store_.GetOrNull(cur->parent_hash());
    if (!parent) {
      EnsureBlock(cur->parent_hash(), LeaderOf(cur->view()));
      return;
    }
    cur = parent;
  }
  // CommitChain may first roll back speculation that diverges from the
  // commit path (Def. 4.7). The conflicting view is the committed block's
  // chain view, not this replica's current view: a CPU-backlogged victim
  // may process an old conflicting commit arbitrarily late, and rollback
  // legality is a property of the chain position, not of the wall clock.
  ReportingRollback(target->id().view,
                    [&] { DeliverCommits(ledger_.CommitChain(target)); });
}

bool ReplicaBase::EnsureBlock(const Hash256& hash, ReplicaId hint) {
  if (store_.Contains(hash)) return true;
  auto [it, fresh] = fetch_retry_at_.try_emplace(hash, 0);
  if (!fresh && Now() < it->second) return false;  // request already in flight
  // Requests or responses may be lost; allow a re-issue after a round trip
  // plus slack.
  it->second = Now() + 4 * config_.delta;
  ++metrics_.fetches;
  auto req = std::make_shared<FetchRequestMsg>(id_);
  req->hash = hash;
  // Ask the hint plus f other replicas: at least one correct replica that
  // voted for the block will answer (§4.2).
  SendTo(hint, req);
  uint32_t asked = 0;
  for (ReplicaId r = 0; r < config_.n && asked < config_.f(); ++r) {
    if (r == hint || r == id_) continue;
    SendTo(r, req);
    ++asked;
  }
  return false;
}

void ReplicaBase::HandleFetchRequest(const FetchRequestMsg& msg) {
  const BlockPtr block = store_.GetOrNull(msg.hash);
  if (!block) return;
  auto resp = std::make_shared<FetchResponseMsg>(id_);
  resp->block = block;
  SendTo(msg.sender, resp);
}

void ReplicaBase::HandleFetchResponse(const FetchResponseMsg& msg) {
  if (!msg.block) return;
  if (store_.Contains(msg.block->hash())) return;
  store_.Put(msg.block);
  fetch_retry_at_.erase(msg.block->hash());
  OnBlockFetched(msg.block);
}

const Certificate* ReplicaBase::JustifyOf(const Hash256& block_hash) const {
  auto it = justify_of_.find(block_hash);
  return it == justify_of_.end() ? nullptr : &it->second;
}

void ReplicaBase::RecordJustify(const Hash256& block_hash, const Certificate& justify) {
  justify_of_.emplace(block_hash, justify);
}

}  // namespace hotstuff1
