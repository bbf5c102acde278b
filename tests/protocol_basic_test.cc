// Basic (non-streamlined) HotStuff-1 (§4, Fig. 2): two-phase views, dual
// commit rules, speculative responses at the Prepare step.

#include <gtest/gtest.h>

#include "core/hotstuff1_basic.h"
#include "runtime/experiment.h"

namespace hotstuff1 {
namespace {

ExperimentConfig BasicConfig(uint32_t n = 4) {
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kHotStuff1Basic;
  cfg.n = n;
  cfg.batch_size = 10;
  cfg.duration = Millis(300);
  cfg.warmup = Millis(100);
  cfg.num_clients = 100;
  cfg.seed = 11;
  return cfg;
}

TEST(BasicHotStuff1Test, CommitsAndSpeculates) {
  Experiment exp(BasicConfig());
  const auto res = exp.Run();
  EXPECT_TRUE(res.safety_ok);
  EXPECT_GT(res.accepted, 50u);
  EXPECT_EQ(res.accepted_speculative, res.accepted);
  const auto& m = exp.replicas()[0]->metrics();
  EXPECT_GT(m.blocks_speculated, 0u);
}

TEST(BasicHotStuff1Test, HalfTheThroughputOfStreamlined) {
  // §5: streamlining doubles throughput (one proposal per phase instead of
  // one per two phases).
  ExperimentConfig basic = BasicConfig();
  ExperimentConfig streamlined = BasicConfig();
  streamlined.protocol = ProtocolKind::kHotStuff1;
  const auto rb = RunExperiment(basic);
  const auto rs = RunExperiment(streamlined);
  EXPECT_NEAR(rb.throughput_tps / rs.throughput_tps, 0.5, 0.12);
}

TEST(BasicHotStuff1Test, SameSpeculativeLatencyAsStreamlined) {
  // Both reach the client after 3 half-phases (Fig. 1 ii vs iii); basic
  // only loses throughput, not latency.
  ExperimentConfig basic = BasicConfig(7);
  ExperimentConfig streamlined = BasicConfig(7);
  streamlined.protocol = ProtocolKind::kHotStuff1;
  const auto rb = RunPaperPoint(basic);
  const auto rs = RunPaperPoint(streamlined);
  EXPECT_NEAR(rb.avg_latency_ms, rs.avg_latency_ms, rs.avg_latency_ms * 0.6);
}

TEST(BasicHotStuff1Test, OneBlockPerView) {
  Experiment exp(BasicConfig());
  exp.Run();
  const auto& r0 = *exp.replicas()[0];
  // Views and committed blocks track ~1:1 (minus pipeline tail).
  EXPECT_NEAR(static_cast<double>(r0.ledger().committed_height()),
              static_cast<double>(r0.view()), 6.0);
}

TEST(BasicHotStuff1Test, HighPrepareAdvances) {
  Experiment exp(BasicConfig());
  exp.Run();
  const auto* r0 =
      static_cast<const HotStuff1BasicReplica*>(exp.replicas()[0].get());
  EXPECT_GT(r0->high_cert().view(), 10u);
  ASSERT_TRUE(r0->high_commit().has_value());
  EXPECT_GT(r0->high_commit()->view(), 10u);
  // The commit certificate trails the prepare certificate.
  EXPECT_LE(r0->high_commit()->view(), r0->high_cert().view());
}

TEST(BasicHotStuff1Test, SurvivesCrashedLeader) {
  ExperimentConfig cfg = BasicConfig(4);
  cfg.strategy = StrategySchedule::Always(kActCrash);
  cfg.num_faulty = 1;
  cfg.view_timer = Millis(5);
  cfg.delta = Millis(1);
  cfg.duration = Millis(500);
  const auto res = RunExperiment(cfg);
  EXPECT_TRUE(res.safety_ok);
  EXPECT_GT(res.accepted, 20u);
  EXPECT_GT(res.timeouts, 0u);
}

TEST(BasicHotStuff1Test, SlowLeaderHurtsLatency) {
  ExperimentConfig cfg = BasicConfig(4);
  cfg.num_clients = 16;
  ExperimentConfig slow = cfg;
  slow.strategy = StrategySchedule::Always(kActSlow);
  slow.num_faulty = 1;
  slow.view_timer = Millis(20);
  const auto fast_res = RunExperiment(cfg);
  const auto slow_res = RunExperiment(slow);
  EXPECT_GT(slow_res.avg_latency_ms, fast_res.avg_latency_ms * 1.5);
  EXPECT_TRUE(slow_res.safety_ok);
}

}  // namespace
}  // namespace hotstuff1
