// Base class shared by every protocol replica: network wiring, pacemaker,
// block store + ledger, signing/verification with CPU accounting, client
// batching and responses, and block-fetch recovery; and the protocol steps
// every core shares: the view change, the highest certificate and the
// prefix commit rule.

#ifndef HOTSTUFF1_CONSENSUS_REPLICA_H_
#define HOTSTUFF1_CONSENSUS_REPLICA_H_

#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "consensus/certificate.h"
#include "consensus/config.h"
#include "consensus/mempool.h"
#include "consensus/messages.h"
#include "consensus/metrics.h"
#include "consensus/pacemaker.h"
#include "ledger/block_store.h"
#include "ledger/ledger.h"
#include "sim/network.h"

namespace hotstuff1 {

class InvariantOracle;  // runtime/oracle.h

class ReplicaBase {
 public:
  ReplicaBase(ReplicaId id, const ConsensusConfig& config, sim::Network* net,
              const KeyRegistry* registry, TransactionSource* source,
              ResponseSink* sink, KvState initial_state);
  virtual ~ReplicaBase() = default;

  ReplicaBase(const ReplicaBase&) = delete;
  ReplicaBase& operator=(const ReplicaBase&) = delete;

  /// Kicks off the pacemaker (epoch-0 synchronization).
  void Start();

  ReplicaId id() const { return id_; }
  const ConsensusConfig& config() const { return config_; }
  uint64_t view() const { return pacemaker_.current_view(); }
  const ReplicaMetrics& metrics() const { return metrics_; }
  const Ledger& ledger() const { return ledger_; }
  const BlockStore& store() const { return store_; }
  /// The highest certificate this replica knows, by certified position.
  const Certificate& high_cert() const { return high_cert_; }

  void SetAdversary(const AdversarySpec& spec) { adversary_ = spec; }
  const AdversarySpec& adversary() const { return adversary_; }
  /// Attaches the online oracle (null = disabled). The base class reports
  /// each view entered, certificate formed (CollectShare), commit,
  /// speculative response and rollback once, for safety and liveness alike;
  /// the chained core adds the equivocation campaigns it launches. Reporting
  /// is a pure observation and never alters behaviour.
  void SetOracle(InvariantOracle* oracle) { oracle_ = oracle; }
  /// Marks the replica crashed: it stops processing and sending. (The
  /// network additionally drops its traffic when Network::Crash is used.)
  void SetCrashed() { crashed_ = true; }
  bool crashed() const { return crashed_; }

  /// Protocol name for reports.
  virtual const char* Name() const = 0;

 protected:
  // --- subclass interface ----------------------------------------------------
  /// Runs after the base's part of view entry (see SendViewChange).
  virtual void OnEnterView(uint64_t view) = 0;
  virtual void OnProtocolMessage(const ConsensusMessage& msg) = 0;
  /// A previously missing block arrived via fetch.
  virtual void OnBlockFetched(const BlockPtr& /*block*/) {}

  // --- transport -------------------------------------------------------------
  void SendTo(ReplicaId to, ConsensusMessagePtr msg);
  void Broadcast(const ConsensusMessagePtr& msg, bool include_self = true);
  /// Sends only to destinations with mask[to] set (conceal-style faults).
  void SendMasked(const std::vector<bool>& mask, const ConsensusMessagePtr& msg);

  // --- crypto with CPU accounting ---------------------------------------------
  void ChargeCpu(SimTime cost) { net_->ConsumeCpu(id_, cost); }
  /// Verifies one share, charging one signature verification.
  bool CheckVote(CertKind kind, uint64_t context_view, const BlockId& block_id,
                 const Hash256& block_hash, const Signature& sig);
  /// Verifies a certificate, charging CPU only the first time a given
  /// certificate content is seen (verification results are cached, as real
  /// implementations do).
  bool CheckCert(const Certificate& cert);

  // --- the view change ---------------------------------------------------------
  /// Hands L_target the NewView for entering view `target`, when this
  /// replica times out of view target-1 and at the bootstrap into view 1
  /// (there is no view 0 to exit, §4.1 note). Only committee members of
  /// `target` send one; the pacemaker callbacks in replica.cc call it. It
  /// carries the highest certificate and no share; slotting adds its
  /// New-View share over H_h (Fig. 7 ll. 27-31).
  virtual void SendViewChange(uint64_t target) { SendNewView(target, high_cert_); }

  /// Raises the highest certificate to `cert` if `cert` certifies a higher
  /// position.
  void UpdateHighCert(const Certificate& cert) {
    if (high_cert_.block_id() < cert.block_id()) high_cert_ = cert;
  }

  // --- the vote path ----------------------------------------------------------
  // Every protocol advances by one linear step: replicas sign a share to one
  // leader, and that leader turns a quorum of shares into a certificate. A
  // share's context view is the view it is cast in: the voted block's view,
  // or for a New-View share (slotting, §6.1) the view being entered.

  /// Sends L_target the NewView message for entering view `target`, carrying
  /// our highest certificate and no share (⊥).
  void SendNewView(uint64_t target, const Certificate& high_cert);
  /// As above, plus a signed `kind` share for `voted`: the streamlined
  /// prepare vote (Fig. 4), basic HotStuff-1's commit share (Fig. 2) or
  /// slotting's New-View share (Fig. 7).
  void SendNewView(uint64_t target, const Certificate& high_cert, CertKind kind,
                   const Block& voted);
  /// Sends the leader of `block`'s view a signed `kind` share for `block`:
  /// basic HotStuff-1's ProposeVote or slotting's NewSlot vote, which also
  /// reports the voter's highest certificate.
  void SendVote(CertKind kind, const Block& block,
                const Certificate& high_cert = Certificate());
  /// Verifies `share` against `acc.digest()`, the vote digest computed once
  /// per accumulator (charging one verification), and adds it. On the share
  /// that completes the quorum, builds the certificate, formed in the view
  /// the shares were cast in (`acc.context_view()`), reports it to the
  /// oracle and returns it; otherwise returns nothing. Every certificate in
  /// the program forms here.
  std::optional<Certificate> CollectShare(VoteAccumulator& acc,
                                          const Signature& share);
  /// A leader's tally of the shares NewView messages carry for one target
  /// view: one accumulator per voted block (normally a single one).
  using ShareTally = std::unordered_map<Hash256, VoteAccumulator, Hash256Hasher>;
  /// The accumulator in `tally` for the block `msg`'s share votes for,
  /// created on first sight, with the quorum of the committee that casts
  /// such shares (ShareQuorum).
  VoteAccumulator& TallyFor(ShareTally& tally, const NewViewMsg& msg);

  // --- proposals ---------------------------------------------------------------
  /// The leader's proposal step: charges the proposal CPU, counts the
  /// proposal and builds it from a freshly drawn batch (BuildProposal).
  /// Returns the unsent proposal, for the core to complete and broadcast.
  std::shared_ptr<ProposeMsg> ProposeBlock(const BlockId& id, const BlockPtr& parent,
                                           const Certificate& justify,
                                           BlockPtr carry = nullptr);
  /// Builds block `id` on `parent` from `txns` (with slotting's `carry`, if
  /// any), stores it and records `justify` as its justify. Returns its
  /// unsent proposal. An equivocating leader builds its second block here.
  std::shared_ptr<ProposeMsg> BuildProposal(const BlockId& id, const BlockPtr& parent,
                                            const Certificate& justify,
                                            std::vector<Transaction> txns,
                                            BlockPtr carry = nullptr);
  /// D6 slow leader (Example 6.1): while the schedule makes this leader
  /// slow, defers `propose` to three quarters into view `v`'s timer, to
  /// collect high-fee transactions, and returns true. The deferred call is
  /// dropped if the view has moved on by then.
  template <typename Propose>
  bool DeferIfSlowLeader(uint64_t v, Propose propose) {
    if (!adversary_.SlowLeader(Now())) return false;
    const SimTime when = pacemaker_.entered_at() + (config_.view_timer * 3) / 4;
    simulator()->At(when, [this, v, propose]() mutable {
      if (!crashed_ && view() == v) propose();
    });
    return true;
  }

  // --- clients ---------------------------------------------------------------
  std::vector<Transaction> DrawBatch();
  void RespondToClients(const BlockPtr& block, const std::vector<uint64_t>& results,
                        bool speculative);
  /// Sends committed responses for freshly committed blocks that were not
  /// already answered speculatively, and charges execution CPU.
  void DeliverCommits(const std::vector<ExecResult>& committed);
  /// The one-phase speculation step every HotStuff-1 core runs when it
  /// learns the certificate of `certified`: speculate it under the Prefix
  /// Speculation rule and, per `no_gap` (the core's adjacency test), the
  /// No-Gap rule, rolling back diverging speculation (Def. 4.7) and
  /// reporting it; then charge execution and respond speculatively for every
  /// executed block.
  void SpeculateAndRespond(const BlockPtr& certified, bool no_gap);

  /// The prefix commit rule (Def. 4.6, extended to (view, slot) positions
  /// by §6.1): starting at `certified`, the block whose certificate was just
  /// learned, follows `links` justifies, each of which must certify the
  /// position right before the block it justifies (BlockId::Precedes), then
  /// commits the last block reached (TryCommit). HotStuff's 3-chain takes 2
  /// links; every other core takes 1.
  void CommitPrefix(BlockPtr certified, int links);
  /// Commits `target` and every uncommitted ancestor if the full path down
  /// to the committed tip is locally available; otherwise kicks off fetches
  /// for the gap and returns without committing (retried on later commits).
  void TryCommit(const BlockPtr& target);

  // --- recovery ---------------------------------------------------------------
  /// True if the block is locally known; otherwise requests it from `hint`
  /// and f other replicas and returns false (§4.2 Recovery Mechanism).
  bool EnsureBlock(const Hash256& hash, ReplicaId hint);

  /// Justify certificate attached to the proposal of a stored block (what
  /// the commit rules consult). Null when unknown.
  const Certificate* JustifyOf(const Hash256& block_hash) const;
  void RecordJustify(const Hash256& block_hash, const Certificate& justify);

  // --- per-view committee arithmetic -----------------------------------------
  // Leadership, quorum sizes, and the right to vote/propose/aggregate are
  // functions of the view's epoch committee in the resolved schedule (the
  // static committee is its one step). Non-members stay full
  // learners/executors (they receive broadcasts, commit via certificates,
  // answer clients) — they just hold no protocol power.
  ReplicaId LeaderOf(uint64_t v) const { return config_.reconfig.LeaderOfView(v); }
  bool IsLeaderOf(uint64_t v) const { return LeaderOf(v) == id_; }
  uint32_t QuorumOf(uint64_t v) const { return config_.reconfig.AtView(v).quorum(); }
  uint32_t CommitteeNOf(uint64_t v) const { return config_.reconfig.AtView(v).n(); }
  uint32_t CommitteeFOf(uint64_t v) const { return config_.reconfig.AtView(v).f(); }
  bool IsMember(uint64_t v, ReplicaId r) const {
    return config_.reconfig.AtView(v).Contains(r);
  }
  /// True when this replica holds protocol power (vote/propose/aggregate/
  /// wish) in view `v`.
  bool ActiveInView(uint64_t v) const { return IsMember(v, id_); }

  sim::Simulator* simulator() const { return net_->simulator(); }
  SimTime Now() const { return net_->simulator()->Now(); }

  ReplicaId id_;
  /// Resolved (ResolveCommittee); the pacemaker holds a reference to it.
  ConsensusConfig config_;
  /// Stamped onto every outgoing message so WireSize charges the configured
  /// authenticator byte shapes (see the transport methods in replica.cc).
  AuthSizeModel auth_model_;
  sim::Network* net_;
  const KeyRegistry* registry_;
  Signer signer_;
  TransactionSource* source_;
  ResponseSink* sink_;

  BlockStore store_;
  Ledger ledger_;
  Pacemaker pacemaker_;
  ReplicaMetrics metrics_;
  AdversarySpec adversary_;
  InvariantOracle* oracle_ = nullptr;
  Certificate high_cert_ = Certificate::Genesis();
  bool crashed_ = false;
  /// Highest view this replica has timed out of (exitView() semantics:
  /// "disable voting for view v"). During epoch synchronization the
  /// pacemaker's current_view() lingers on the old view until the TC
  /// arrives; voting or aggregating in a view <= exited_view_ would
  /// contradict the NewView message already sent and is forbidden.
  uint64_t exited_view_ = 0;

 private:
  /// Runs `step`, a step of the local ledger, and reports the rollback it
  /// made, if any, to the oracle at chain view `chain_view`. The ledger
  /// counts every rollback itself (Ledger::rollback_events). Defined in
  /// replica.cc, its only user.
  template <typename Step>
  void ReportingRollback(uint64_t chain_view, Step step);

  /// Signs one share, charging one signature. Only the vote path signs.
  Signature SignVote(CertKind kind, uint64_t context_view, const BlockId& block_id,
                     const Hash256& block_hash);
  /// Quorum for `kind` shares over a block of view `block_view`, where a
  /// New-View share enters `entered_view`: the quorum of the committee that
  /// casts them (see replica.cc).
  uint32_t ShareQuorum(CertKind kind, uint64_t block_view,
                       uint64_t entered_view) const;

  /// Strategy-schedule wire suppression (withhold / target-leader): true when
  /// this (adversarial) replica must drop its outbound message to `to` right
  /// now. Self-delivery is never suppressed — the coalition keeps its own
  /// protocol state while starving everyone else.
  bool SuppressSendTo(ReplicaId to) const;

  /// test_break_reconfig mutation (see ConsensusConfig): on entering the
  /// first view of an epoch that voted this replica out, commit a fabricated
  /// block atop the committed tip and halt. Only the cross-epoch oracle
  /// lattice can catch the resulting conflict.
  void MaybeBreakReconfig(uint64_t view);

  void HandleMessage(sim::NodeId from, const sim::NetMessagePtr& raw);
  void HandleFetchRequest(const FetchRequestMsg& msg);
  void HandleFetchResponse(const FetchResponseMsg& msg);

  std::unordered_set<Hash256, Hash256Hasher> verified_certs_;
  std::unordered_map<Hash256, Certificate, Hash256Hasher> justify_of_;
  // In-flight fetches and when they may be re-issued (requests and
  // responses can be lost; fetches must retry).
  std::unordered_map<Hash256, SimTime, Hash256Hasher> fetch_retry_at_;
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_CONSENSUS_REPLICA_H_
