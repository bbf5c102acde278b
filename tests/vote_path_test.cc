// The vote path every protocol core shares (ReplicaBase): a replica signs a
// share to one leader (SendNewView, SendVote), and the leader turns a quorum
// of shares into a certificate (CollectShare), the program's only place
// where certificates form and are reported to the invariant oracle. And the
// prefix commit rule every core shares (CommitPrefix).

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "consensus/replica.h"
#include "runtime/oracle.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace hotstuff1 {
namespace {

constexpr uint32_t kN = 4;  // f = 1, quorum 3

// n = kN with its committee resolved, as Experiment::Setup hands replicas
// their parameters.
ConsensusConfig VoteConfig() {
  ConsensusConfig config;
  config.n = kN;
  config.reconfig = ResolveCommittee({}, kN);
  return config;
}

// A replica with no protocol rules of its own: it exposes the vote path and
// the commit rule, and records the shares that reach it. It never proposes
// or answers clients, so it needs no transaction source or response sink.
class VoteReplica : public ReplicaBase {
 public:
  VoteReplica(ReplicaId id, sim::Network* net, const KeyRegistry* registry)
      : ReplicaBase(id, VoteConfig(), net, registry,
                    /*source=*/nullptr, /*sink=*/nullptr, KvState()) {}

  const char* Name() const override { return "vote path"; }

  using ReplicaBase::CollectShare;
  using ReplicaBase::CommitPrefix;
  using ReplicaBase::LeaderOf;
  using ReplicaBase::QuorumOf;
  using ReplicaBase::RecordJustify;
  using ReplicaBase::SendNewView;
  using ReplicaBase::SendVote;
  using ReplicaBase::ShareTally;
  using ReplicaBase::TallyFor;

  void Store(const BlockPtr& block) { store_.Put(block); }

  std::vector<NewViewMsg> new_views;
  std::vector<VoteMsg> votes;

 protected:
  void OnEnterView(uint64_t /*view*/) override {}
  void OnProtocolMessage(const ConsensusMessage& msg) override {
    if (msg.type == ConsensusMessage::Type::kNewView) {
      new_views.push_back(static_cast<const NewViewMsg&>(msg));
    } else if (msg.type == ConsensusMessage::Type::kVote) {
      votes.push_back(static_cast<const VoteMsg&>(msg));
    }
  }
};

class VotePathTest : public ::testing::Test {
 protected:
  VotePathTest() : registry_(kN, 7), net_(&sim_, kN) {
    net_.SetAllLatencies(Millis(0.1));
    for (ReplicaId r = 0; r < kN; ++r) {
      replicas_.push_back(std::make_unique<VoteReplica>(r, &net_, &registry_));
    }
  }

  static BlockPtr MakeBlock(uint64_t view) {
    return std::make_shared<Block>(BlockId{view, 1}, Block::Genesis()->hash(),
                                   /*height=*/1, /*proposer=*/0,
                                   std::vector<Transaction>{});
  }

  // `signer`'s share for the vote `acc` tallies, signed under `domain`.
  Signature Share(ReplicaId signer, const VoteAccumulator& acc,
                  SignDomain domain) const {
    return Signer(&registry_, signer)
        .Sign(domain, VoteDigest(acc.kind(), acc.context_view(), acc.block_id(),
                                 acc.block_hash()));
  }
  Signature Share(ReplicaId signer, const VoteAccumulator& acc) const {
    return Share(signer, acc, DomainFor(acc.kind()));
  }

  VoteReplica& replica(ReplicaId r) { return *replicas_[r]; }

  KeyRegistry registry_;
  sim::Simulator sim_;
  sim::Network net_;
  std::vector<std::unique_ptr<VoteReplica>> replicas_;
};

constexpr CertKind kKinds[] = {CertKind::kPrepare, CertKind::kCommit,
                               CertKind::kNewSlot, CertKind::kNewView};

TEST_F(VotePathTest, ForgedAndCrossDomainSharesNeverCount) {
  const BlockPtr block = MakeBlock(5);
  for (CertKind kind : kKinds) {
    SCOPED_TRACE(CertKindName(kind));
    VoteAccumulator acc(kind, 5, block->id(), block->hash(), 3);
    // Replica 2's signature relabelled as replica 1's.
    Signature forged = Share(2, acc);
    forged.signer = 1;
    EXPECT_FALSE(replica(0).CollectShare(acc, forged));
    // Replica 1's own key, but under every other step's domain.
    for (CertKind other : kKinds) {
      if (other == kind) continue;
      EXPECT_FALSE(replica(0).CollectShare(acc, Share(1, acc, DomainFor(other))));
    }
    EXPECT_EQ(acc.count(), 0u);
    // Only genuine shares count toward the quorum.
    EXPECT_FALSE(replica(0).CollectShare(acc, Share(1, acc)));
    EXPECT_FALSE(replica(0).CollectShare(acc, Share(2, acc)));
    EXPECT_EQ(acc.count(), 2u);
    EXPECT_TRUE(replica(0).CollectShare(acc, Share(3, acc)));
  }
}

TEST_F(VotePathTest, RepeatedSignerDoesNotCount) {
  const BlockPtr block = MakeBlock(5);
  VoteAccumulator acc(CertKind::kPrepare, 5, block->id(), block->hash(), 3);
  EXPECT_FALSE(replica(0).CollectShare(acc, Share(1, acc)));
  EXPECT_FALSE(replica(0).CollectShare(acc, Share(1, acc)));
  EXPECT_FALSE(replica(0).CollectShare(acc, Share(2, acc)));
  EXPECT_FALSE(replica(0).CollectShare(acc, Share(2, acc)));
  EXPECT_EQ(acc.count(), 2u);
}

TEST_F(VotePathTest, ExactlyOneCertificateOnTheCompletingShare) {
  const BlockPtr block = MakeBlock(5);
  // A New-View share tallied for view 6 forms a certificate annotated fv = 6.
  VoteAccumulator acc(CertKind::kNewView, 6, block->id(), block->hash(), 3);
  std::vector<std::optional<Certificate>> formed;
  for (ReplicaId r : {1u, 2u, 3u, 0u}) {
    formed.push_back(replica(0).CollectShare(acc, Share(r, acc)));
  }
  EXPECT_FALSE(formed[0]);
  EXPECT_FALSE(formed[1]);
  ASSERT_TRUE(formed[2]);
  EXPECT_FALSE(formed[3]);  // past the quorum: counted, no second certificate
  EXPECT_EQ(acc.count(), 4u);

  const Certificate& cert = *formed[2];
  EXPECT_EQ(cert.kind(), CertKind::kNewView);
  EXPECT_EQ(cert.formed_view(), 6u);
  EXPECT_EQ(cert.block_id(), block->id());
  EXPECT_EQ(cert.block_hash(), block->hash());
  EXPECT_EQ(cert.sigs().size(), 3u);
  EXPECT_TRUE(cert.Verify(registry_, 3).ok());

  // Every other kind is cast, and so formed, in the voted block's view.
  VoteAccumulator slot(CertKind::kNewSlot, 5, block->id(), block->hash(), 3);
  std::optional<Certificate> slot_cert;
  for (ReplicaId r : {1u, 2u, 3u}) {
    slot_cert = replica(0).CollectShare(slot, Share(r, slot));
  }
  ASSERT_TRUE(slot_cert);
  EXPECT_EQ(slot_cert->formed_view(), 5u);
}

TEST_F(VotePathTest, OracleSeesEachFormedCertificateOnce) {
  InvariantOracle::Setup setup;
  setup.n = kN;
  setup.committee = VoteConfig().reconfig;
  InvariantOracle oracle(&sim_, setup);
  replica(0).SetOracle(&oracle);

  uint64_t formed = 0;
  for (uint64_t view : {5u, 6u, 7u}) {
    const BlockPtr block = MakeBlock(view);
    VoteAccumulator acc(CertKind::kPrepare, view, block->id(), block->hash(), 3);
    for (ReplicaId r : {1u, 2u, 0u, 3u}) {
      Signature forged = Share(r, acc);
      forged.signer = (r + 1) % kN;
      replica(0).CollectShare(acc, forged);  // rejected: never reported
      if (replica(0).CollectShare(acc, Share(r, acc))) ++formed;
      EXPECT_EQ(oracle.events_observed(), formed);
    }
  }
  EXPECT_EQ(formed, 3u);
  EXPECT_EQ(oracle.verdict(InvariantOracle::kSafety).violations, 0u);
}

TEST_F(VotePathTest, SharesReachTheLeaderAndVerifyThere) {
  const uint64_t target = 7;  // a NewView for view 7 goes to L_7
  const ReplicaId leader = replica(1).LeaderOf(target);
  const BlockPtr block = MakeBlock(target - 1);
  const Certificate high_cert = Certificate::Genesis();

  replica(1).SendNewView(target, high_cert);
  for (CertKind kind : kKinds) {
    replica(1).SendNewView(target, high_cert, kind, *block);
    replica(0).SendVote(kind, *block, high_cert);
  }
  sim_.RunUntil(Millis(5));

  for (ReplicaId r = 0; r < kN; ++r) {
    if (r == leader) continue;
    EXPECT_TRUE(replica(r).new_views.empty()) << "replica " << r;
  }
  VoteReplica& l = replica(leader);
  ASSERT_EQ(l.new_views.size(), 5u);
  EXPECT_FALSE(l.new_views[0].has_share);
  EXPECT_EQ(l.new_views[0].target_view, target);
  for (size_t i = 1; i < l.new_views.size(); ++i) {
    const NewViewMsg& nv = l.new_views[i];
    SCOPED_TRACE(CertKindName(nv.share_kind));
    EXPECT_EQ(nv.share_kind, kKinds[i - 1]);
    EXPECT_EQ(nv.voted_hash, block->hash());
    VoteReplica::ShareTally tally;
    VoteAccumulator& acc = l.TallyFor(tally, nv);
    EXPECT_EQ(acc.context_view(),
              nv.share_kind == CertKind::kNewView ? target : block->view());
    l.CollectShare(acc, nv.share);
    EXPECT_EQ(acc.count(), 1u);  // the share verified against its vote
  }

  // Votes go to the leader of the voted block's view, cast in that view.
  const ReplicaId vote_leader = replica(0).LeaderOf(block->view());
  for (ReplicaId r = 0; r < kN; ++r) {
    if (r == vote_leader) continue;
    EXPECT_TRUE(replica(r).votes.empty()) << "replica " << r;
  }
  ASSERT_EQ(replica(vote_leader).votes.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    const VoteMsg& vote = replica(vote_leader).votes[i];
    SCOPED_TRACE(CertKindName(vote.vote_kind));
    EXPECT_EQ(vote.vote_kind, kKinds[i]);
    VoteAccumulator acc(vote.vote_kind, vote.block_id.view, vote.block_id,
                        vote.block_hash, replica(vote_leader).QuorumOf(block->view()));
    replica(vote_leader).CollectShare(acc, vote.share);
    EXPECT_EQ(acc.count(), 1u);
  }
  EXPECT_EQ(replica(0).metrics().votes_sent, 4u);
}

// The prefix commit rule over a hand-built chain of txn-free blocks, stored
// at every replica. Each block's recorded justify certifies its parent, as
// the proposal that carried it would have.
TEST_F(VotePathTest, CommitPrefixFollowsAdjacentJustifies) {
  std::vector<BlockPtr> chain{Block::Genesis()};  // chain[h] is at height h
  for (const BlockId id : {BlockId{1, 1}, BlockId{2, 1}, BlockId{3, 1}, BlockId{5, 1},
                           BlockId{6, 1}, BlockId{7, 1}, BlockId{7, 2}, BlockId{7, 3},
                           BlockId{8, 1}}) {
    const BlockPtr& parent = chain.back();
    chain.push_back(std::make_shared<Block>(id, parent->hash(), parent->height() + 1,
                                            /*proposer=*/0, std::vector<Transaction>{}));
  }
  for (ReplicaId r = 0; r < kN; ++r) {
    for (size_t h = 1; h < chain.size(); ++h) {
      const BlockPtr& parent = chain[h - 1];
      replica(r).Store(chain[h]);
      replica(r).RecordJustify(
          chain[h]->hash(),
          parent->IsGenesis() ? Certificate::Genesis()
                              : Certificate(CertKind::kPrepare, parent->id(),
                                            parent->hash(), parent->view(), {}));
    }
  }
  auto committed = [&](ReplicaId r) { return replica(r).ledger().committed_height(); };

  // 1 link: (3,1)'s justify certifies (2,1), committed with its ancestors.
  replica(0).CommitPrefix(chain[3], 1);
  EXPECT_EQ(committed(0), 2u);
  EXPECT_TRUE(replica(0).ledger().IsCommitted(chain[1]->hash()));
  // 2 links: one block lower.
  replica(1).CommitPrefix(chain[3], 2);
  EXPECT_EQ(committed(1), 1u);
  // A view gap: (5,1)'s justify certifies (3,1), so neither (5,1) nor the
  // 2-link chain from (6,1) through it commits anything.
  replica(2).CommitPrefix(chain[4], 1);
  replica(2).CommitPrefix(chain[5], 2);
  EXPECT_EQ(committed(2), 0u);
  // Slotted positions: (7,1) -> (7,2) within a view, (7,3) -> (8,1) across.
  replica(3).CommitPrefix(chain[7], 1);
  EXPECT_EQ(committed(3), 6u);
  replica(3).CommitPrefix(chain[9], 1);
  EXPECT_EQ(committed(3), 8u);
}

}  // namespace
}  // namespace hotstuff1
