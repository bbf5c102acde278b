// ReplicaSet: multi-word bit ops, popcount/quorum thresholds at every word
// boundary up to kCapacity = 512 (the n=512 extension crosses eight words),
// the hard out-of-range check, and the client-pool regression proving the old
// `1ULL << (from % 64)` aliasing bug (two replicas 64 apart sharing one vote
// bit) is gone.

#include <gtest/gtest.h>

#include "client/client_pool.h"
#include "common/replica_set.h"
#include "workload/ycsb.h"

namespace hotstuff1 {
namespace {

TEST(ReplicaSetTest, StartsEmpty) {
  ReplicaSet s;
  EXPECT_TRUE(s.None());
  EXPECT_EQ(s.Count(), 0u);
  for (uint32_t r : {0u, 63u, 64u, 255u}) EXPECT_FALSE(s.Test(r));
}

TEST(ReplicaSetTest, SetTestAcrossWordBoundaries) {
  ReplicaSet s;
  const uint32_t ids[] = {0,   1,   63,  64,  65,  127, 128, 129, 191,
                          192, 255, 256, 257, 319, 320, 383, 384, 447,
                          448, 510, 511};
  for (uint32_t r : ids) s.Set(r);
  EXPECT_EQ(s.Count(), 21u);
  for (uint32_t r : ids) EXPECT_TRUE(s.Test(r));
  // Neighbours of every boundary id stay clear: no bleed between words.
  for (uint32_t r : {2u, 62u, 66u, 126u, 130u, 190u, 193u, 254u, 258u, 318u,
                     321u, 382u, 385u, 446u, 449u, 509u}) {
    EXPECT_FALSE(s.Test(r)) << r;
  }
  // Setting twice is idempotent.
  s.Set(64);
  s.Set(511);
  EXPECT_EQ(s.Count(), 21u);
}

TEST(ReplicaSetTest, NoAliasingAcrossWords) {
  // The old single-word mask folded id 64+k onto id k. Every id must own
  // its own bit now.
  for (uint32_t k : {0u, 1u, 63u}) {
    ReplicaSet s;
    s.Set(k);
    EXPECT_FALSE(s.Test(k + 64));
    EXPECT_FALSE(s.Test(k + 128));
    s.Set(k + 64);
    EXPECT_EQ(s.Count(), 2u) << "ids " << k << " and " << k + 64
                             << " must occupy distinct bits";
  }
}

TEST(ReplicaSetTest, CountReachesQuorumAtWordBoundaryCommittees) {
  // For each committee size the n=512 extension crosses, filling the first
  // `quorum` ids must reach the n-f threshold exactly once. 257 and 511 sit
  // just past / just under a word boundary; 512 fills the whole set.
  for (uint32_t n : {63u, 64u, 65u, 96u, 127u, 128u, 256u, 257u, 511u, 512u}) {
    const uint32_t f = (n - 1) / 3;
    const uint32_t quorum = n - f;
    ReplicaSet s;
    for (uint32_t r = 0; r < quorum - 1; ++r) s.Set(r);
    EXPECT_LT(s.Count(), quorum) << "n=" << n;
    s.Set(quorum - 1);
    EXPECT_EQ(s.Count(), quorum) << "n=" << n;
    for (uint32_t r = quorum; r < n; ++r) s.Set(r);
    EXPECT_EQ(s.Count(), n) << "n=" << n;
  }
}

TEST(ReplicaSetTest, UnionIntersectionEquality) {
  ReplicaSet a = ReplicaSet::Single(3);
  a.Set(70);
  ReplicaSet b = ReplicaSet::Single(70);
  b.Set(200);

  const ReplicaSet u = a | b;
  EXPECT_EQ(u.Count(), 3u);
  EXPECT_TRUE(u.Test(3));
  EXPECT_TRUE(u.Test(70));
  EXPECT_TRUE(u.Test(200));

  const ReplicaSet i = a & b;
  EXPECT_EQ(i.Count(), 1u);
  EXPECT_TRUE(i.Test(70));

  EXPECT_EQ(a, a);
  EXPECT_NE(a, b);
  EXPECT_EQ(a | b, b | a);
}

TEST(ReplicaSetDeathTest, OutOfRangeIdIsFatal) {
  // An id beyond the capacity is a protocol bug, not a modular wrap. At 512
  // this covers the old hard-fail point (id 256) as a plain in-range Set
  // and fails only at the new boundary.
  ReplicaSet s;
  s.Set(256);  // legal now; used to be the capacity wall
  EXPECT_DEATH(s.Set(ReplicaSet::kCapacity), "ReplicaSet capacity");
  EXPECT_DEATH((void)s.Test(ReplicaSet::kCapacity), "ReplicaSet capacity");
}

// --- client-pool regression ---------------------------------------------------

class WidePoolTest : public ::testing::Test {
 protected:
  // 68 replicas: ids 1 and 65 collide modulo 64, the old aliasing pair.
  static constexpr uint32_t kN = 68;

  WidePoolTest() {
    ClientPoolConfig cfg;
    cfg.num_clients = 10;
    cfg.quorum_commit = 2;                  // f+1 for a small f
    cfg.quorum_speculative = 0;
    cfg.track_accepted = true;
    pool_ = std::make_unique<ClientPool>(&sim_, &workload_, cfg,
                                         std::vector<SimTime>(kN, Millis(1)));
    pool_->Start();
    sim_.RunUntil(Millis(2));
  }

  BlockPtr MakeBlock(std::vector<Transaction> txns) {
    return std::make_shared<Block>(BlockId{1, 1}, Block::Genesis()->hash(), 1, 0,
                                   std::move(txns));
  }

  void Respond(const BlockPtr& block, std::initializer_list<ReplicaId> replicas) {
    const std::vector<uint64_t> results(block->txns().size(), 99);
    for (ReplicaId r : replicas) {
      pool_->OnBlockResponse(r, block, results, /*speculative=*/false, sim_.Now());
    }
    sim_.RunUntil(sim_.Now() + Millis(2));
  }

  sim::Simulator sim_;
  YcsbWorkload workload_;
  std::unique_ptr<ClientPool> pool_;
};

TEST_F(WidePoolTest, RepliesSixtyFourApartFormAQuorum) {
  // Regression: replicas 1 and 65 used to share vote bit 1, so their two
  // committed responses counted as one and the quorum never formed.
  auto batch = pool_->DrawBatch(0, 10, sim_.Now());
  const BlockPtr block = MakeBlock(std::move(batch));
  Respond(block, {1});
  EXPECT_EQ(pool_->accepted(), 0u);
  Respond(block, {65});
  EXPECT_EQ(pool_->accepted(), 10u);
}

TEST_F(WidePoolTest, DuplicateHighIdRepliesDoNotInflateQuorum) {
  // The dual of the aliasing bug: a double reply from a >64 id must still
  // count once.
  auto batch = pool_->DrawBatch(0, 10, sim_.Now());
  const BlockPtr block = MakeBlock(std::move(batch));
  Respond(block, {65, 65, 65});
  EXPECT_EQ(pool_->accepted(), 0u);
  Respond(block, {66});
  EXPECT_EQ(pool_->accepted(), 10u);
}

TEST_F(WidePoolTest, ResponseFromUnknownReplicaIsFatal) {
  auto batch = pool_->DrawBatch(0, 10, sim_.Now());
  const BlockPtr block = MakeBlock(std::move(batch));
  EXPECT_DEATH(Respond(block, {kN}), "unknown replica");
}

}  // namespace
}  // namespace hotstuff1
