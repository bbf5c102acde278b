// Byzantine-attack reproductions:
//  * Appendix A.3: the prefix-speculation dilemma, shown as an actual
//    client-safety violation when the rules are disabled, and its absence
//    when they are enforced.
//  * Leader slowness (D6), tail-forking (D7), and the rollback attack of
//    §7.3, end-to-end, including the slotted protocol's resistance.

#include <gtest/gtest.h>

#include "client/client_pool.h"
#include "core/speculation.h"
#include "runtime/experiment.h"
#include "tests/result_equality.h"
#include "workload/ycsb.h"

namespace hotstuff1 {
namespace {

// ---------------------------------------------------------------------------
// Appendix A.3 (streamlined variant of A.1), reconstructed at the level of
// ledgers + client quorum. n = 4, f = 1. Correct replicas: A = {0},
// A' = {1}, A* = {2}; replica 3 is faulty. The Byzantine leaders of views
// 1..8 drive the following certificate schedule:
//   P(1) certifies B1 (extends genesis)      -> shown only to A
//   P(3) certifies B3 (extends genesis)      -> shown only to A'
//   P(5) certifies B5 (extends B1!)          -> shown only to A*
//   the winning chain later extends B3 and commits, orphaning B1 and B5.
// If A* speculates B5 *and its uncommitted prefix B1* (violating the Prefix
// Speculation rule), the client collects B1 responses from {A, A*, faulty}
// = n-f and wrongly finalizes B1.
// ---------------------------------------------------------------------------
class PrefixDilemmaTest : public ::testing::Test {
 protected:
  PrefixDilemmaTest()
      : ledger_a_(&store_, KvState()),
        ledger_a2_(&store_, KvState()),
        ledger_star_(&store_, KvState()),
        scratch_(&store_, KvState()) {
    ClientPoolConfig cp;
    cp.num_clients = 1;
    cp.quorum_commit = 2;       // f+1
    cp.quorum_speculative = 3;  // n-f
    cp.track_accepted = true;
    pool_ = std::make_unique<ClientPool>(&sim_, &workload_, cp,
                                         std::vector<SimTime>(4, 0));
    pool_->Start();
    sim_.RunUntil(Millis(1));

    auto batch = pool_->DrawBatch(0, 1, sim_.Now());
    txn_ = batch[0];

    b1_ = Put(1, store_.genesis(), {txn_});
    b3_ = Put(3, store_.genesis(), {});
    b5_ = Put(5, b1_, {});
    b7_ = Put(7, b3_, {});
  }

  BlockPtr Put(uint64_t view, const BlockPtr& parent, std::vector<Transaction> txns) {
    auto b = std::make_shared<Block>(BlockId{view, 1}, parent->hash(),
                                     parent->height() + 1, 0, std::move(txns));
    store_.Put(b);
    return b;
  }

  void RespondFor(ReplicaId replica, const BlockPtr& block,
                  const std::vector<uint64_t>& results) {
    pool_->OnBlockResponse(replica, block, results, /*speculative=*/true,
                           sim_.Now());
    sim_.RunUntil(sim_.Now() + 10);
  }

  sim::Simulator sim_;
  YcsbWorkload workload_;
  BlockStore store_;
  Ledger ledger_a_, ledger_a2_, ledger_star_, scratch_;
  std::unique_ptr<ClientPool> pool_;
  Transaction txn_;
  BlockPtr b1_, b3_, b5_, b7_;
};

TEST_F(PrefixDilemmaTest, ViolatingPrefixRuleBreaksClientSafety) {
  SpeculationPolicy unsafe;
  unsafe.prefix_rule = false;  // the disabled rule

  // A sees P(1): speculates B1 (legal: extends committed genesis).
  auto out_a = TrySpeculate(&ledger_a_, store_, b1_, true, unsafe);
  ASSERT_TRUE(out_a.speculated);
  RespondFor(0, b1_, out_a.executed[0].results);

  // A' sees P(3): speculates B3 on its local ledger.
  ASSERT_TRUE(TrySpeculate(&ledger_a2_, store_, b3_, true, unsafe).speculated);

  // A* sees P(5): with the prefix rule disabled it executes the uncommitted
  // prefix B1 as well -- the dilemma.
  auto out_star = TrySpeculate(&ledger_star_, store_, b5_, true, unsafe);
  ASSERT_TRUE(out_star.speculated);
  ASSERT_EQ(out_star.executed.size(), 2u);
  ASSERT_EQ(out_star.executed[0].block->hash(), b1_->hash());
  RespondFor(2, b1_, out_star.executed[0].results);

  // The faulty replica echoes a matching B1 response.
  RespondFor(3, b1_, out_a.executed[0].results);

  // The client now holds n-f matching commit-votes for B1 and finalizes it.
  ASSERT_EQ(pool_->accepted(), 1u);
  ASSERT_EQ(pool_->accepted_records()[0].block_hash, b1_->hash());

  // ... but the winning chain commits B3/B7, orphaning B1: client safety is
  // broken (Appendix A.3's "unsafe scenario for clients").
  scratch_.CommitChain(b7_);
  EXPECT_FALSE(scratch_.IsCommitted(b1_->hash()));
}

TEST_F(PrefixDilemmaTest, PrefixRulePreventsTheViolation) {
  SpeculationPolicy safe;  // all rules on

  auto out_a = TrySpeculate(&ledger_a_, store_, b1_, true, safe);
  ASSERT_TRUE(out_a.speculated);
  RespondFor(0, b1_, out_a.executed[0].results);

  // A* refuses: B5's predecessor B1 is not committed (Def. 3.1).
  auto out_star = TrySpeculate(&ledger_star_, store_, b5_, true, safe);
  EXPECT_FALSE(out_star.speculated);

  // Even with the faulty replica's response, only 2 < n-f commit-votes for
  // B1 exist: the client never finalizes it.
  RespondFor(3, b1_, out_a.executed[0].results);
  EXPECT_EQ(pool_->accepted(), 0u);
}

TEST_F(PrefixDilemmaTest, NoGapRuleBlocksStaleCertificateSpeculation) {
  SpeculationPolicy safe;
  // A.3's second scenario: A* receives P(1) late, in view 5 (a view gap in
  // which the conflicting P(3) formed). The protocol layer encodes this as
  // no_gap = false; speculation must not happen.
  EXPECT_FALSE(TrySpeculate(&ledger_star_, store_, b1_, /*no_gap=*/false, safe)
                   .speculated);
  // Disabling the rule reproduces the unsafe execution.
  SpeculationPolicy unsafe;
  unsafe.no_gap_rule = false;
  EXPECT_TRUE(TrySpeculate(&ledger_star_, store_, b1_, /*no_gap=*/false, unsafe)
                  .speculated);
}

// ---------------------------------------------------------------------------
// End-to-end fault experiments.
// ---------------------------------------------------------------------------

// `count` faulty replicas doing `behaviour` ("0-:<action>") throughout.
ExperimentConfig FaultConfig(ProtocolKind kind, uint32_t behaviour, uint32_t count) {
  ExperimentConfig cfg;
  cfg.protocol = kind;
  cfg.n = 7;  // f = 2
  cfg.batch_size = 10;
  cfg.duration = Millis(600);
  cfg.warmup = Millis(150);
  cfg.num_clients = 150;
  cfg.view_timer = Millis(10);
  cfg.strategy = StrategySchedule::Always(behaviour);
  cfg.num_faulty = count;
  cfg.seed = 5;
  cfg.track_accepted = true;
  return cfg;
}

// Cor. B.10: every client-accepted block is committed by correct replicas.
void ExpectClientSafety(Experiment& exp, SimTime grace) {
  const SimTime cutoff =
      exp.config().warmup + exp.config().duration - grace;
  for (const auto& rec : exp.clients().accepted_records()) {
    if (rec.time > cutoff) continue;  // still in flight at the end
    bool committed = false;
    for (const auto& r : exp.replicas()) {
      if (r->ledger().IsCommitted(rec.block_hash)) {
        committed = true;
        break;
      }
    }
    EXPECT_TRUE(committed) << "accepted block " << rec.block_hash.Short()
                           << " never committed";
  }
}

TEST(LeaderSlownessTest, DegradesStreamlinedProtocols) {
  const auto honest =
      RunExperiment(FaultConfig(ProtocolKind::kHotStuff1, kActNone, 0));
  const auto slow =
      RunExperiment(FaultConfig(ProtocolKind::kHotStuff1, kActSlow, 2));
  EXPECT_TRUE(slow.safety_ok);
  EXPECT_LT(slow.throughput_tps, honest.throughput_tps * 0.8);
}

TEST(LeaderSlownessTest, SlottingResists) {
  const auto honest = RunExperiment(
      FaultConfig(ProtocolKind::kHotStuff1Slotted, kActNone, 0));
  const auto slow = RunExperiment(
      FaultConfig(ProtocolKind::kHotStuff1Slotted, kActSlow, 2));
  EXPECT_TRUE(slow.safety_ok);
  // §7.3: slotting bounds the damage to a few percent.
  EXPECT_GT(slow.throughput_tps, honest.throughput_tps * 0.85);
}

TEST(TailForkTest, OrphansPreviousProposalInStreamlined) {
  Experiment exp(FaultConfig(ProtocolKind::kHotStuff1, kActTailFork, 2));
  const auto res = exp.Run();
  EXPECT_TRUE(res.safety_ok);
  // Tail-forked blocks never commit; their transactions get resubmitted.
  EXPECT_GT(res.resubmissions, 0u);
  ExpectClientSafety(exp, Millis(150));
}

TEST(TailForkTest, ThroughputDropExceedsSlotted) {
  const auto honest =
      RunExperiment(FaultConfig(ProtocolKind::kHotStuff1, kActNone, 0));
  const auto forked =
      RunExperiment(FaultConfig(ProtocolKind::kHotStuff1, kActTailFork, 2));
  const auto honest_slot = RunExperiment(
      FaultConfig(ProtocolKind::kHotStuff1Slotted, kActNone, 0));
  const auto forked_slot = RunExperiment(
      FaultConfig(ProtocolKind::kHotStuff1Slotted, kActTailFork, 2));
  const double drop_plain = forked.throughput_tps / honest.throughput_tps;
  const double drop_slot = forked_slot.throughput_tps / honest_slot.throughput_tps;
  EXPECT_LT(drop_plain, 0.95);       // visible damage
  EXPECT_GT(drop_slot, drop_plain);  // slotting absorbs the attack (§6.2)
}

TEST(TailForkTest, BaselinesAlsoSuffer) {
  for (auto kind : {ProtocolKind::kHotStuff, ProtocolKind::kHotStuff2}) {
    const auto honest = RunExperiment(FaultConfig(kind, kActNone, 0));
    const auto forked = RunExperiment(FaultConfig(kind, kActTailFork, 2));
    EXPECT_TRUE(forked.safety_ok);
    EXPECT_LT(forked.throughput_tps, honest.throughput_tps);
  }
}

TEST(RollbackAttackTest, ForcesRollbacksOnVictims) {
  ExperimentConfig cfg =
      FaultConfig(ProtocolKind::kHotStuff1, kActEquivocate, 2);
  cfg.rollback_victims = 2;  // up to f correct replicas misled per attack
  Experiment exp(cfg);
  const auto res = exp.Run();
  EXPECT_TRUE(res.safety_ok);
  EXPECT_GT(res.rollback_events, 0u);  // victims rolled back speculation
  EXPECT_GT(res.accepted, 50u);        // system keeps making progress
  ExpectClientSafety(exp, Millis(150));
}

TEST(RollbackAttackTest, GlobalLedgerNeverRollsBack) {
  ExperimentConfig cfg =
      FaultConfig(ProtocolKind::kHotStuff1, kActEquivocate, 2);
  cfg.rollback_victims = 2;
  Experiment exp(cfg);
  exp.Run();
  // Committed prefixes agree everywhere despite local-ledger rollbacks.
  EXPECT_TRUE(exp.CheckSafety());
}

// The result counts every local-ledger rollback at correct replicas,
// including those a commit makes (ReplicaBase::TryCommit): it is the sum of
// their Ledger counters. fig10_rollback's smoke row at 10 faulty leaders.
TEST(RollbackAttackTest, CountsEveryLedgerRollbackAtCorrectReplicas) {
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kHotStuff1;
  cfg.n = 32;
  cfg.batch_size = 100;
  cfg.strategy = StrategySchedule::Always(kActEquivocate);
  cfg.num_faulty = 10;
  cfg.rollback_victims = 10;
  cfg.view_timer = Millis(10);
  cfg.delta = Millis(1);
  cfg.warmup = Millis(40);
  cfg.duration = Millis(120);
  cfg.seed = 2024;
  Experiment exp(cfg);
  const auto res = exp.Run();
  uint64_t events = 0;
  uint64_t blocks = 0;
  for (const auto& r : exp.replicas()) {
    if (r->adversary().schedule) continue;  // faulty
    events += r->ledger().rollback_events();
    blocks += r->ledger().blocks_rolled_back();
  }
  EXPECT_GT(res.rollback_events, 0u);
  EXPECT_EQ(res.rollback_events, events);
  EXPECT_EQ(res.blocks_rolled_back, blocks);
}

TEST(RollbackAttackTest, SlottingConfinesTheAttack) {
  ExperimentConfig plain =
      FaultConfig(ProtocolKind::kHotStuff1, kActEquivocate, 2);
  plain.rollback_victims = 2;
  ExperimentConfig slotted = plain;
  slotted.protocol = ProtocolKind::kHotStuff1Slotted;
  const auto rp = RunExperiment(plain);
  const auto rs = RunExperiment(slotted);
  EXPECT_TRUE(rs.safety_ok);
  // §7.3: "rollback attacks have minimal impact on HotStuff-1 with
  // slotting" - far fewer rollback events than the plain variant.
  EXPECT_LE(rs.rollback_events, rp.rollback_events);
}

// The cores ask the schedule when they decide, not a per-run flag: a
// behaviour whose entry starts after the run ends leaves every result as in
// the run with no schedule, while the same behaviour from epoch 0 changes
// it. A core that ignores a word by design (basic: tailfork, slotted: slow)
// is only held to the first half.
TEST(ScheduledBehaviourTest, OnlyLiveEntriesChangeTheRun) {
  struct Case {
    ProtocolKind kind;
    const char* word;
    bool ignored;
  };
  for (const Case& c : {Case{ProtocolKind::kHotStuff1, "slow", false},
                        Case{ProtocolKind::kHotStuff1, "tailfork", false},
                        Case{ProtocolKind::kHotStuff, "slow", false},
                        Case{ProtocolKind::kHotStuff1Basic, "slow", false},
                        Case{ProtocolKind::kHotStuff1Basic, "tailfork", true},
                        Case{ProtocolKind::kHotStuff1Slotted, "slow", true},
                        Case{ProtocolKind::kHotStuff1Slotted, "tailfork", false}}) {
    SCOPED_TRACE(std::string(ProtocolName(c.kind)) + " " + c.word);
    const ExperimentConfig none = FaultConfig(c.kind, kActNone, 2);
    ExperimentConfig late = none;
    ExperimentConfig live = none;
    ASSERT_TRUE(ParseStrategySchedule(std::string("1000-:") + c.word, &late.strategy));
    ASSERT_TRUE(ParseStrategySchedule(std::string("0-:") + c.word, &live.strategy));
    const ExperimentResult base = RunExperiment(none);
    ExpectSameResult(RunExperiment(late), base);
    if (c.ignored) continue;
    const ExperimentResult hit = RunExperiment(live);
    EXPECT_TRUE(hit.safety_ok);
    EXPECT_NE(hit.messages_sent, base.messages_sent);
  }
}

TEST(ImpersonationTest, ForgedSenderIsIgnored) {
  // Channel authentication: a message whose claimed sender differs from its
  // wire origin is dropped, so a faulty replica cannot impersonate the
  // leader. We inject a forged proposal and check the system's chain is
  // unaffected (still only honest-leader blocks).
  ExperimentConfig cfg = FaultConfig(ProtocolKind::kHotStuff1, kActNone, 0);
  cfg.duration = Millis(300);
  Experiment exp(cfg);
  exp.Setup();
  auto& net = exp.network();
  auto forged = std::make_shared<ProposeMsg>(/*claimed sender=*/0);
  forged->block = std::make_shared<Block>(
      BlockId{2, 1}, Block::Genesis()->hash(), 1, 0,
      std::vector<Transaction>{});
  forged->justify = Certificate::Genesis();
  exp.simulator().After(Millis(160), [&net, forged]() {
    net.Send(/*actual origin=*/3, 1, forged);  // 3 pretends to be 0
  });
  const auto res = exp.Run();
  EXPECT_TRUE(res.safety_ok);
  for (const auto& b : exp.replicas()[1]->ledger().committed_chain()) {
    if (b->IsGenesis()) continue;
    EXPECT_NE(b->hash(), forged->block->hash());
  }
}

}  // namespace
}  // namespace hotstuff1
