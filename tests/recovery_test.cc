// Recovery mechanisms (§4.2): block fetch, delayed certificates, the
// prefix-commit optimization, crash-and-catch-up, and partition healing.

#include <gtest/gtest.h>

#include "baselines/hotstuff2.h"
#include "core/hotstuff1_streamlined.h"
#include "runtime/experiment.h"

namespace hotstuff1 {
namespace {

ExperimentConfig Base(ProtocolKind kind, uint32_t n = 4) {
  ExperimentConfig cfg;
  cfg.protocol = kind;
  cfg.n = n;
  cfg.batch_size = 10;
  cfg.duration = Millis(400);
  cfg.warmup = Millis(100);
  cfg.num_clients = 100;
  cfg.view_timer = Millis(8);
  cfg.delta = Millis(1);
  cfg.seed = 21;
  return cfg;
}

TEST(RecoveryTest, FetchSuppliesConcealedBlocks) {
  // A network partition delays all traffic from one replica for a while;
  // when it heals, the replica catches up by fetching / committing the
  // chain it missed.
  ExperimentConfig cfg = Base(ProtocolKind::kHotStuff1, 4);
  cfg.duration = Millis(800);
  Experiment exp(cfg);
  exp.Setup();
  // Cut replica 3 off between 150ms and 400ms.
  sim::FaultRule cut;
  cut.from_match.assign(4, true);
  cut.to_match.assign(4, false);
  cut.to_match[3] = true;
  cut.drop_prob = 1.0;
  int rule = -1;
  exp.simulator().At(Millis(150), [&]() { rule = exp.network().AddRule(cut); });
  exp.simulator().At(Millis(400), [&]() { exp.network().RemoveRule(rule); });
  const auto res = exp.Run();
  EXPECT_TRUE(res.safety_ok);
  EXPECT_GT(res.accepted, 100u);
  // The partitioned replica re-joined and committed the chain it missed.
  const auto& lagger = *exp.replicas()[3];
  const auto& leader0 = *exp.replicas()[0];
  EXPECT_GT(lagger.ledger().committed_height(), 0u);
  EXPECT_GT(lagger.ledger().committed_height() + 30,
            leader0.ledger().committed_height());
}

TEST(RecoveryTest, ProgressDespiteLossyNetwork) {
  // 2% uniform message loss: timeouts and fetches must keep both safety
  // and liveness.
  ExperimentConfig cfg = Base(ProtocolKind::kHotStuff1, 4);
  cfg.duration = Millis(800);
  Experiment exp(cfg);
  exp.Setup();
  sim::FaultRule lossy;
  lossy.from_match.assign(4, true);
  lossy.to_match.assign(4, true);
  lossy.drop_prob = 0.02;
  exp.network().AddRule(lossy);
  const auto res = exp.Run();
  EXPECT_TRUE(res.safety_ok);
  EXPECT_GT(res.accepted, 50u);
}

TEST(RecoveryTest, CrashedLeaderViewsAreSkipped) {
  ExperimentConfig cfg = Base(ProtocolKind::kHotStuff2, 4);
  cfg.strategy = StrategySchedule::Always(kActCrash);
  cfg.num_faulty = 1;  // replica 1 crashes; it leads every 4th view
  cfg.duration = Millis(600);
  Experiment exp(cfg);
  const auto res = exp.Run();
  EXPECT_TRUE(res.safety_ok);
  EXPECT_GT(res.accepted, 50u);
  // The crashed replica proposed nothing; others did.
  EXPECT_EQ(exp.replicas()[1]->metrics().blocks_proposed, 0u);
  EXPECT_GT(exp.replicas()[2]->metrics().blocks_proposed, 0u);
  // Views led by the crashed replica show up as timeouts at correct ones.
  EXPECT_GT(exp.replicas()[0]->metrics().timeouts, 5u);
}

TEST(RecoveryTest, LateReplicaStartStillJoins) {
  // Replica 3 starts 200ms late (e.g. restarted process): the pacemaker's
  // TC broadcasts pull it into the current epoch.
  ExperimentConfig cfg = Base(ProtocolKind::kHotStuff1, 4);
  cfg.duration = Millis(800);
  Experiment exp(cfg);
  exp.Setup();
  exp.network().Crash(3);
  exp.simulator().At(Millis(200), [&]() { exp.network().Recover(3); });
  const auto res = exp.Run();
  EXPECT_TRUE(res.safety_ok);
  EXPECT_GT(res.accepted, 50u);
  EXPECT_GT(exp.replicas()[3]->view(), 10u);
}

TEST(RecoveryTest, DelayedCertificatesCommitViaPrefixRule) {
  // §4.2 "Prefix Commit: Processing Delayed Certificates": blocks whose
  // certificate a replica missed still commit once a descendant's
  // certificate chain arrives; no block is permanently stuck.
  ExperimentConfig cfg = Base(ProtocolKind::kHotStuff1, 7);
  cfg.strategy = StrategySchedule::Always(kActTailFork);
  cfg.num_faulty = 2;
  cfg.duration = Millis(800);
  cfg.track_accepted = true;
  Experiment exp(cfg);
  const auto res = exp.Run();
  EXPECT_TRUE(res.safety_ok);
  // All correct replicas converge to (nearly) the same committed height
  // even though tail-forked certificates were dropped along the way.
  uint64_t min_h = UINT64_MAX, max_h = 0;
  for (uint32_t id = 0; id < 7; ++id) {
    if (id >= 1 && id <= 2) continue;  // adversaries
    const uint64_t h = exp.replicas()[id]->ledger().committed_height();
    min_h = std::min(min_h, h);
    max_h = std::max(max_h, h);
  }
  EXPECT_GT(min_h, 0u);
  EXPECT_LE(max_h - min_h, 10u);
}

TEST(RecoveryTest, FetchCountersExposed) {
  // Direct check of the fetch plumbing: conceal a proposal from replica 0
  // by dropping leader traffic to it briefly, then verify it fetched.
  ExperimentConfig cfg = Base(ProtocolKind::kHotStuff2, 4);
  cfg.duration = Millis(600);
  Experiment exp(cfg);
  exp.Setup();
  sim::FaultRule drop_to_0;
  drop_to_0.from_match.assign(4, true);
  drop_to_0.to_match.assign(4, false);
  drop_to_0.to_match[0] = true;
  drop_to_0.drop_prob = 0.3;
  int rule = exp.network().AddRule(drop_to_0);
  exp.simulator().At(Millis(300), [&]() { exp.network().RemoveRule(rule); });
  const auto res = exp.Run();
  EXPECT_TRUE(res.safety_ok);
  EXPECT_GT(exp.replicas()[0]->metrics().fetches, 0u);
  // And the fetches actually healed the chain.
  EXPECT_GT(exp.replicas()[0]->ledger().committed_height() + 20,
            exp.replicas()[2]->ledger().committed_height());
}

}  // namespace
}  // namespace hotstuff1
