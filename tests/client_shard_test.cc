// Sharded client pool: cross-group quorum tallies inside one block,
// per-group retry-sweeper independence, duplicate-acceptance protection via
// id generations, and open-loop queue/backlog semantics under overload.

#include <gtest/gtest.h>

#include <algorithm>

#include "client/client_pool.h"
#include "workload/ycsb.h"

namespace hotstuff1 {
namespace {

constexpr uint32_t kN = 4, kF = 1;

class ClientShardTest : public ::testing::Test {
 protected:
  void MakePool(ClientPoolConfig cfg) {
    cfg.quorum_commit = kF + 1;        // 2
    cfg.quorum_speculative = kN - kF;  // 3
    cfg.track_accepted = true;
    pool_ = std::make_unique<ClientPool>(&sim_, &workload_, cfg,
                                         std::vector<SimTime>(kN, Millis(1)));
    pool_->Start();
  }

  BlockPtr MakeBlock(std::vector<Transaction> txns, uint64_t view = 1) {
    return std::make_shared<Block>(BlockId{view, 1}, Block::Genesis()->hash(), 1,
                                   0, std::move(txns));
  }

  void Respond(const BlockPtr& block, std::initializer_list<ReplicaId> replicas,
               bool speculative, uint64_t result = 99) {
    const std::vector<uint64_t> results(block->txns().size(), result);
    for (ReplicaId r : replicas) {
      pool_->OnBlockResponse(r, block, results, speculative, sim_.Now());
    }
    sim_.RunUntil(sim_.Now() + Millis(2));
  }

  sim::Simulator sim_;
  YcsbWorkload workload_;
  std::unique_ptr<ClientPool> pool_;
};

TEST_F(ClientShardTest, TxnIdsEncodeGroupSlotGeneration) {
  const uint64_t id = MakeClientTxnId(9, 123'456, 77);
  EXPECT_EQ(ClientTxnGroup(id), 9u);
  EXPECT_EQ(ClientTxnSlot(id), 123'456u);
  EXPECT_EQ(ClientTxnGeneration(id), 77u);
  // The layout fills the id space without overlap at the extremes.
  const uint64_t top = MakeClientTxnId(kMaxClientGroups - 1,
                                       kMaxSlotsPerGroup - 1, UINT32_MAX);
  EXPECT_EQ(ClientTxnGroup(top), kMaxClientGroups - 1);
  EXPECT_EQ(ClientTxnSlot(top), kMaxSlotsPerGroup - 1);
  EXPECT_EQ(ClientTxnGeneration(top), UINT32_MAX);
}

TEST_F(ClientShardTest, CrossShardQuorumInsideOneBlock) {
  // 8 clients striped over 4 groups (client c lives in group c % 4): one
  // leader draws all 8 into a single block, and the committed quorum must
  // tally correctly in every owning group.
  ClientPoolConfig cfg;
  cfg.num_clients = 8;
  cfg.groups = 4;
  cfg.resubmit_timeout = Millis(50);
  MakePool(cfg);
  sim_.RunUntil(Millis(2));

  auto txns = pool_->DrawBatch(0, 100, sim_.Now());
  ASSERT_EQ(txns.size(), 8u);
  uint32_t groups_seen[4] = {0, 0, 0, 0};
  for (const auto& t : txns) {
    ASSERT_LT(ClientTxnGroup(t.id), 4u);
    ++groups_seen[ClientTxnGroup(t.id)];
  }
  for (uint32_t g = 0; g < 4; ++g) EXPECT_EQ(groups_seen[g], 2u) << "group " << g;

  const BlockPtr block = MakeBlock(std::move(txns));
  Respond(block, {0}, /*speculative=*/false);
  EXPECT_EQ(pool_->accepted(), 0u);  // one committed response is below f+1
  Respond(block, {1}, /*speculative=*/false);
  EXPECT_EQ(pool_->accepted(), 8u);
  EXPECT_EQ(pool_->accepted_speculative(), 0u);
  EXPECT_EQ(pool_->latencies().count(), 8u);
  // Every acceptance names the block that formed the quorum (Cor. B.10 data).
  ASSERT_EQ(pool_->accepted_records().size(), 8u);
  for (const auto& rec : pool_->accepted_records()) {
    EXPECT_EQ(rec.block_hash, block->hash());
  }
}

TEST_F(ClientShardTest, SpeculativeQuorumCrossesGroups) {
  ClientPoolConfig cfg;
  cfg.num_clients = 8;
  cfg.groups = 4;
  cfg.resubmit_timeout = Millis(50);
  MakePool(cfg);
  sim_.RunUntil(Millis(2));

  const BlockPtr block = MakeBlock(pool_->DrawBatch(0, 100, sim_.Now()));
  Respond(block, {0, 1}, /*speculative=*/true);
  EXPECT_EQ(pool_->accepted(), 0u);  // 2 speculative responses < n-f = 3
  Respond(block, {2}, /*speculative=*/true);
  EXPECT_EQ(pool_->accepted(), 8u);
  EXPECT_EQ(pool_->accepted_speculative(), 8u);
}

TEST_F(ClientShardTest, MismatchedResultsDoNotCombineAcrossGroups) {
  ClientPoolConfig cfg;
  cfg.num_clients = 8;
  cfg.groups = 4;
  cfg.resubmit_timeout = Millis(250);
  MakePool(cfg);
  sim_.RunUntil(Millis(2));

  const BlockPtr block = MakeBlock(pool_->DrawBatch(0, 100, sim_.Now()));
  Respond(block, {0}, /*speculative=*/false, /*result=*/1);
  Respond(block, {1}, /*speculative=*/false, /*result=*/2);
  EXPECT_EQ(pool_->accepted(), 0u);
  Respond(block, {2}, /*speculative=*/false, /*result=*/1);
  EXPECT_EQ(pool_->accepted(), 8u);  // 0 and 2 agree: that's f+1
}

TEST_F(ClientShardTest, RetrySweepersActPerGroup) {
  // Two clients, one per group. Both transactions are drawn, but only group
  // 0's is ever answered: group 1's sweeper must retry its transaction while
  // group 0's sweeper leaves the accepted slot alone.
  ClientPoolConfig cfg;
  cfg.num_clients = 2;
  cfg.groups = 2;
  cfg.resubmit_timeout = Millis(50);
  MakePool(cfg);
  sim_.RunUntil(Millis(2));

  auto txns = pool_->DrawBatch(0, 100, sim_.Now());
  ASSERT_EQ(txns.size(), 2u);
  std::stable_sort(txns.begin(), txns.end(),
                   [](const Transaction& a, const Transaction& b) {
                     return ClientTxnGroup(a.id) < ClientTxnGroup(b.id);
                   });
  ASSERT_EQ(ClientTxnGroup(txns[0].id), 0u);
  ASSERT_EQ(ClientTxnGroup(txns[1].id), 1u);
  const uint64_t orphaned_id = txns[1].id;

  const BlockPtr block = MakeBlock({txns[0]});
  Respond(block, {0, 1}, /*speculative=*/false);
  EXPECT_EQ(pool_->accepted(), 1u);

  // Past the timeout the group-1 sweeper re-enqueues its orphaned txn (with
  // its original id); group 0 has nothing in flight to retry. The accepted
  // client's fresh closed-loop submission is also pending — distinguish by id.
  sim_.RunUntil(Millis(140));
  EXPECT_GE(pool_->resubmissions(), 1u);
  auto redraw = pool_->DrawBatch(0, 100, sim_.Now());
  bool saw_orphan = false;
  for (const auto& t : redraw) {
    if (t.id == orphaned_id) saw_orphan = true;
    // The accepted transaction must never reappear: its slot was freed with
    // a generation bump, so even the reused slot mints a different id.
    EXPECT_NE(t.id, block->txns()[0].id);
  }
  EXPECT_TRUE(saw_orphan);
}

TEST_F(ClientShardTest, StaleGenerationCannotDoubleAccept) {
  ClientPoolConfig cfg;
  cfg.num_clients = 4;
  cfg.groups = 2;
  cfg.resubmit_timeout = Millis(250);
  MakePool(cfg);
  sim_.RunUntil(Millis(2));

  const BlockPtr block = MakeBlock(pool_->DrawBatch(0, 100, sim_.Now()));
  Respond(block, {0, 1}, /*speculative=*/false);
  EXPECT_EQ(pool_->accepted(), 4u);
  // Late responses for the same block hit freed slots (bumped generations)
  // and are dropped — acceptance is recorded exactly once per transaction.
  Respond(block, {2, 3}, /*speculative=*/false);
  EXPECT_EQ(pool_->accepted(), 4u);
  EXPECT_EQ(pool_->latencies().count(), 4u);
}

TEST_F(ClientShardTest, OpenLoopBacklogGrowsUnderOverload) {
  // Open loop, nobody draws: the backlog is exactly the arrival count — the
  // pool applies no admission control (that is the point of the model).
  ClientPoolConfig cfg;
  cfg.num_clients = 1'000'000;
  cfg.groups = 4;
  cfg.arrival.kind = ArrivalKind::kPoisson;
  cfg.arrival.offered_load_tps = 100'000;
  cfg.resubmit_timeout = Millis(250);
  cfg.seed = 5;
  MakePool(cfg);

  sim_.RunUntil(Millis(50));
  const uint64_t backlog_50ms = pool_->backlog();
  // ~5000 expected arrivals; 4 sigma is ~285.
  EXPECT_NEAR(static_cast<double>(backlog_50ms), 5'000.0, 400.0);
  EXPECT_EQ(pool_->accepted(), 0u);

  // Draining a batch shrinks the backlog by exactly the drawn count.
  const auto batch = pool_->DrawBatch(0, 1'000, sim_.Now());
  ASSERT_EQ(batch.size(), 1'000u);
  EXPECT_EQ(pool_->backlog(), backlog_50ms - 1'000);

  // Unanswered drawn transactions re-enter the queue after the timeout, on
  // top of the arrivals that kept coming.
  sim_.RunUntil(Millis(400));
  EXPECT_GE(pool_->resubmissions(), 900u);
}

TEST_F(ClientShardTest, OpenLoopAcceptanceDoesNotResubmit) {
  // Closed-loop clients submit their next transaction on acceptance; open
  // loop must not (the arrival process is the only source of fresh load).
  ClientPoolConfig cfg;
  cfg.num_clients = 1'000'000;
  cfg.groups = 2;
  cfg.arrival.kind = ArrivalKind::kPoisson;
  cfg.arrival.offered_load_tps = 50'000;
  cfg.resubmit_timeout = Millis(250);
  cfg.seed = 5;
  MakePool(cfg);

  sim_.RunUntil(Millis(20));
  auto txns = pool_->DrawBatch(0, 100, sim_.Now());
  ASSERT_FALSE(txns.empty());
  const size_t drawn = txns.size();
  const uint64_t backlog_before = pool_->backlog();

  const BlockPtr block = MakeBlock(std::move(txns));
  const SimTime respond_at = sim_.Now();
  Respond(block, {0, 1}, /*speculative=*/false);
  EXPECT_EQ(pool_->accepted(), drawn);
  EXPECT_EQ(pool_->latencies().count(), drawn);

  // The backlog only grew by the new arrivals in the response window — no
  // closed-loop echo of the accepted transactions. 2ms at 50k tps is ~100
  // expected arrivals; 300 is > 4 sigma above, far below `drawn` echoes.
  const SimTime elapsed = sim_.Now() - respond_at;
  const double expected_arrivals =
      cfg.arrival.offered_load_tps * ToSeconds(elapsed);
  EXPECT_NEAR(static_cast<double>(pool_->backlog() - backlog_before),
              expected_arrivals, 60.0);
}

}  // namespace
}  // namespace hotstuff1
