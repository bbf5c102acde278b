// Client pool: request visibility, matching-quorum acceptance (f+1 committed
// vs n-f speculative), the no-vote-mixing rule across blocks, latency
// accounting, and resubmission of orphaned transactions.

#include <gtest/gtest.h>

#include "client/client_pool.h"
#include "workload/ycsb.h"

namespace hotstuff1 {
namespace {

constexpr uint32_t kN = 4, kF = 1;

class ClientPoolTest : public ::testing::Test {
 protected:
  ClientPoolTest() {
    ClientPoolConfig cfg;
    cfg.num_clients = 10;
    cfg.quorum_commit = kF + 1;        // 2
    cfg.quorum_speculative = kN - kF;  // 3
    cfg.resubmit_timeout = Millis(50);
    cfg.track_accepted = true;
    pool_ = std::make_unique<ClientPool>(&sim_, &workload_, cfg,
                                         std::vector<SimTime>(kN, Millis(1)));
    pool_->Start();
    sim_.RunUntil(Millis(2));  // all submissions visible everywhere
  }

  BlockPtr MakeBlock(std::vector<Transaction> txns, uint64_t view = 1) {
    return std::make_shared<Block>(BlockId{view, 1}, Block::Genesis()->hash(), 1,
                                   0, std::move(txns));
  }

  /// Delivers matching responses from `replicas` and runs the simulator.
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

TEST_F(ClientPoolTest, DrawBatchRespectsVisibilityAndFifo) {
  // All 10 initial transactions are visible after 1ms.
  auto batch = pool_->DrawBatch(0, 4, sim_.Now());
  EXPECT_EQ(batch.size(), 4u);
  auto rest = pool_->DrawBatch(0, 100, sim_.Now());
  EXPECT_EQ(rest.size(), 6u);
  EXPECT_EQ(pool_->backlog(), 0u);
  // FIFO: ids don't repeat across draws.
  for (const auto& a : batch) {
    for (const auto& b : rest) EXPECT_NE(a.id, b.id);
  }
}

TEST_F(ClientPoolTest, FreshSubmissionsNotVisibleInstantly) {
  auto all = pool_->DrawBatch(0, 100, sim_.Now());
  const BlockPtr block = MakeBlock(std::move(all));
  // Deliver f+1 committed responses; acceptance happens after the 1ms
  // response hop, at which point each client submits a fresh transaction.
  const std::vector<uint64_t> results(block->txns().size(), 99);
  pool_->OnBlockResponse(0, block, results, false, sim_.Now());
  pool_->OnBlockResponse(1, block, results, false, sim_.Now());
  sim_.RunUntil(sim_.Now() + Millis(1) + 10);
  ASSERT_EQ(pool_->accepted(), 10u);
  // Fresh submissions are only microseconds old: not yet visible (the 1ms
  // request hop has not elapsed).
  EXPECT_EQ(pool_->DrawBatch(0, 100, sim_.Now()).size(), 0u);
  sim_.RunUntil(sim_.Now() + Millis(2));
  EXPECT_EQ(pool_->DrawBatch(0, 100, sim_.Now()).size(), 10u);
}

TEST_F(ClientPoolTest, CommittedQuorumAccepts) {
  auto batch = pool_->DrawBatch(0, 10, sim_.Now());
  const BlockPtr block = MakeBlock(std::move(batch));
  Respond(block, {0}, false);
  EXPECT_EQ(pool_->accepted(), 0u);  // one commit is not enough
  Respond(block, {2}, false);
  EXPECT_EQ(pool_->accepted(), 10u);
  EXPECT_EQ(pool_->accepted_speculative(), 0u);
}

TEST_F(ClientPoolTest, SpeculativeNeedsFullQuorum) {
  auto batch = pool_->DrawBatch(0, 10, sim_.Now());
  const BlockPtr block = MakeBlock(std::move(batch));
  Respond(block, {0, 1}, true);  // f+1 speculative responses: NOT enough
  EXPECT_EQ(pool_->accepted(), 0u);
  Respond(block, {2}, true);  // n-f = 3 matching speculative responses
  EXPECT_EQ(pool_->accepted(), 10u);
  EXPECT_EQ(pool_->accepted_speculative(), 10u);
}

TEST_F(ClientPoolTest, CommittedCountsTowardSpeculativeQuorum) {
  auto batch = pool_->DrawBatch(0, 10, sim_.Now());
  const BlockPtr block = MakeBlock(std::move(batch));
  Respond(block, {0, 1}, true);
  Respond(block, {2}, false);  // commit response completes the n-f quorum
  EXPECT_EQ(pool_->accepted(), 10u);
}

TEST_F(ClientPoolTest, DuplicateRepliesDoNotInflateQuorum) {
  auto batch = pool_->DrawBatch(0, 10, sim_.Now());
  const BlockPtr block = MakeBlock(std::move(batch));
  Respond(block, {0, 0, 0}, true);
  Respond(block, {1, 1}, true);
  EXPECT_EQ(pool_->accepted(), 0u);  // only two distinct replicas
}

TEST_F(ClientPoolTest, MismatchedResultsDoNotCombine) {
  auto batch = pool_->DrawBatch(0, 10, sim_.Now());
  const BlockPtr block = MakeBlock(std::move(batch));
  Respond(block, {0, 1}, true, /*result=*/1);
  Respond(block, {2}, true, /*result=*/2);  // diverging execution result
  EXPECT_EQ(pool_->accepted(), 0u);
}

TEST_F(ClientPoolTest, ResponsesAcrossBlocksDoNotCombine) {
  // The prefix-speculation dilemma's client-side guard (§3): votes for the
  // same transaction in *different blocks* must not form one quorum.
  auto batch = pool_->DrawBatch(0, 10, sim_.Now());
  const BlockPtr block_a = MakeBlock(batch, /*view=*/1);
  const BlockPtr block_b = MakeBlock(batch, /*view=*/2);
  Respond(block_a, {0, 1}, true);
  Respond(block_b, {2, 3}, true);
  EXPECT_EQ(pool_->accepted(), 0u);  // 2 + 2 but split across blocks
  Respond(block_a, {2}, true);
  EXPECT_EQ(pool_->accepted(), 10u);  // 3 matching on block_a
}

TEST_F(ClientPoolTest, LatencyIncludesRequestAndResponseHops) {
  auto batch = pool_->DrawBatch(0, 1, sim_.Now());
  const SimTime before = sim_.Now();
  const BlockPtr block = MakeBlock(std::move(batch));
  Respond(block, {0, 1}, false);
  ASSERT_EQ(pool_->latencies().count(), 1u);
  // Latency >= submit->now plus the 1ms response hop.
  EXPECT_GE(pool_->latencies().AvgMs(), ToMillis(sim_.Now() - before) * 0.5);
}

TEST_F(ClientPoolTest, ResubmitAfterTimeout) {
  auto batch = pool_->DrawBatch(0, 10, sim_.Now());
  EXPECT_EQ(batch.size(), 10u);
  EXPECT_EQ(pool_->backlog(), 0u);
  // Never respond: the transactions were in an orphaned block.
  sim_.RunUntil(sim_.Now() + Millis(200));
  EXPECT_GE(pool_->resubmissions(), 10u);
  EXPECT_EQ(pool_->DrawBatch(0, 100, sim_.Now()).size(), 10u);
}

TEST_F(ClientPoolTest, ResubmittedTxnKeepsOriginalLatency) {
  auto batch = pool_->DrawBatch(0, 10, sim_.Now());
  const uint64_t orphaned_id = batch[0].id;
  sim_.RunUntil(sim_.Now() + Millis(120));  // timeout + resubmit
  auto retry = pool_->DrawBatch(0, 10, sim_.Now());
  ASSERT_EQ(retry.size(), 10u);
  bool found = false;
  for (const auto& t : retry) found = found || t.id == orphaned_id;
  EXPECT_TRUE(found);
  const BlockPtr block = MakeBlock(std::move(retry));
  Respond(block, {0, 1}, false);
  ASSERT_EQ(pool_->latencies().count(), 10u);
  EXPECT_GT(pool_->latencies().AvgMs(), 100.0);  // measured from first submit
}

TEST_F(ClientPoolTest, TrackAcceptedRecordsBlocks) {
  auto batch = pool_->DrawBatch(0, 10, sim_.Now());
  const BlockPtr block = MakeBlock(std::move(batch));
  Respond(block, {0, 1}, false);
  ASSERT_EQ(pool_->accepted_records().size(), 10u);
  for (const auto& rec : pool_->accepted_records()) {
    EXPECT_EQ(rec.block_hash, block->hash());
    EXPECT_FALSE(rec.speculative);
  }
}

TEST_F(ClientPoolTest, ResetStatsClearsWindow) {
  auto batch = pool_->DrawBatch(0, 10, sim_.Now());
  const BlockPtr block = MakeBlock(std::move(batch));
  Respond(block, {0, 1}, false);
  EXPECT_EQ(pool_->accepted(), 10u);
  pool_->ResetStats();
  EXPECT_EQ(pool_->accepted(), 0u);
  EXPECT_EQ(pool_->latencies().count(), 0u);
}

}  // namespace
}  // namespace hotstuff1
