// Liveness family of the oracle + adversary-library tests.
//
//   * Liveness unit semantics: the online k-view stall detector, the
//     end-of-run silence check, GST gating (pre-GST churn is free), and the
//     skip conditions (cap-truncated runs, never-reached GST).
//   * Rollback legality (Def. 4.7): a victim rollback must be justified by an
//     outstanding misleading campaign no more than two epochs older than the
//     conflicting view. The stale-epoch case is a regression test — before
//     the campaign records existed, ANY victim rollback under the rollback
//     attack passed, including ones no live campaign could explain.
//   * Every unit case checks both families: one oracle judges both, so a
//     liveness event must never move the safety verdict and vice versa.
//   * Mutation self-test: the test_break_liveness hook breaks pacemaker epoch
//     synchronization; only the progress monitor can see the resulting stall
//     (the safety family stays silent — nothing unsafe ever happens).
//   * Over-threshold tier: every OverThresholdCaseFromSeed tuple must trip
//     exactly the oracle family it advertises.
//   * Executor invariance: a liveness-violating strategy run produces
//     byte-identical verdicts and diagnostics at any sim_jobs x lookahead.

#include <gtest/gtest.h>

#include "runtime/adversary.h"
#include "runtime/config_schema.h"
#include "runtime/experiment.h"
#include "runtime/fuzz.h"
#include "runtime/oracle.h"
#include "sim/simulator.h"
#include "tests/result_equality.h"

namespace hotstuff1 {
namespace {

using sim::Simulator;

std::shared_ptr<const std::vector<bool>> Mask(uint32_t n,
                                              std::vector<uint32_t> faulty) {
  auto mask = std::make_shared<std::vector<bool>>(n, false);
  for (uint32_t r : faulty) (*mask)[r] = true;
  return mask;
}

const InvariantOracle::Verdict& Safety(const InvariantOracle& oracle) {
  return oracle.verdict(InvariantOracle::kSafety);
}
const InvariantOracle::Verdict& Liveness(const InvariantOracle& oracle) {
  return oracle.verdict(InvariantOracle::kLiveness);
}

// A replica's first commit: height 1 atop genesis. The safety family reads
// the block, and an uncertified one is only judged at the next commit, so a
// single commit of it is clean.
BlockPtr FirstCommit() {
  return std::make_shared<Block>(BlockId{1, 1}, Block::Genesis()->hash(), 1, 0,
                                 std::vector<Transaction>{});
}

// --- liveness unit semantics ---------------------------------------------------

TEST(LivenessFamilyTest, OnlineStallFiresAfterKViewsWithoutCommit) {
  Simulator sim;
  InvariantOracle::Setup setup;
  setup.n = 4;
  setup.gst = 0;  // synchronous: armed from the start
  setup.k = 5;
  setup.grace = Millis(500);
  InvariantOracle oracle(&sim, setup);

  for (uint64_t v = 1; v <= 5; ++v) oracle.OnViewEntered(0, v);
  EXPECT_EQ(Liveness(oracle).violations, 0u);  // exactly k views: within budget
  oracle.OnViewEntered(0, 6);
  EXPECT_EQ(Liveness(oracle).violations, 1u);
  EXPECT_NE(Liveness(oracle).First().find("liveness-stall"), std::string::npos)
      << Liveness(oracle).First();

  // Re-armed: the next report needs k further views, not one.
  oracle.OnViewEntered(0, 7);
  EXPECT_EQ(Liveness(oracle).violations, 1u);
  oracle.OnViewEntered(0, 12);
  EXPECT_EQ(Liveness(oracle).violations, 2u);
  EXPECT_EQ(Safety(oracle).violations, 0u) << Safety(oracle).First();
}

TEST(LivenessFamilyTest, CommitsAdvanceTheProgressBaseline) {
  Simulator sim;
  InvariantOracle::Setup setup;
  setup.n = 4;
  setup.k = 5;
  InvariantOracle oracle(&sim, setup);

  for (uint64_t v = 1; v <= 5; ++v) oracle.OnViewEntered(0, v);
  oracle.OnBlockCommitted(0, FirstCommit());  // progress: baseline moves to view 5
  for (uint64_t v = 6; v <= 10; ++v) oracle.OnViewEntered(0, v);
  EXPECT_EQ(Liveness(oracle).violations, 0u);
  oracle.OnViewEntered(0, 11);  // 11 > 5 + 5
  EXPECT_EQ(Liveness(oracle).violations, 1u);
  EXPECT_EQ(Safety(oracle).violations, 0u) << Safety(oracle).First();
}

TEST(LivenessFamilyTest, FaultyReplicasDoNotCount) {
  Simulator sim;
  InvariantOracle::Setup setup;
  setup.n = 4;
  setup.k = 5;
  setup.faulty_mask = Mask(4, {3});
  InvariantOracle oracle(&sim, setup);
  // A Byzantine replica racing ahead in views proves nothing about correct
  // progress; its commits must not reset the baseline either.
  oracle.OnViewEntered(3, 100);
  EXPECT_EQ(Liveness(oracle).violations, 0u);
  for (uint64_t v = 1; v <= 5; ++v) oracle.OnViewEntered(0, v);
  oracle.OnBlockCommitted(3, FirstCommit());  // faulty commit: not progress
  oracle.OnViewEntered(0, 6);
  EXPECT_EQ(Liveness(oracle).violations, 1u);
  EXPECT_EQ(Safety(oracle).violations, 0u) << Safety(oracle).First();
}

TEST(LivenessFamilyTest, PreGstChurnIsFree) {
  Simulator sim;
  InvariantOracle::Setup setup;
  setup.n = 4;
  setup.gst = Millis(10);  // barrier pending: monitor disarmed until notified
  setup.k = 5;
  InvariantOracle oracle(&sim, setup);

  // The adversary may burn arbitrarily many pre-GST views.
  for (uint64_t v = 1; v <= 50; ++v) oracle.OnViewEntered(0, v);
  EXPECT_EQ(Liveness(oracle).violations, 0u);

  oracle.OnGstReached();  // Thm B.8's clock starts here, at view 50
  for (uint64_t v = 51; v <= 55; ++v) oracle.OnViewEntered(0, v);
  EXPECT_EQ(Liveness(oracle).violations, 0u);
  oracle.OnViewEntered(0, 56);
  EXPECT_EQ(Liveness(oracle).violations, 1u);
  EXPECT_EQ(Safety(oracle).violations, 0u) << Safety(oracle).First();
}

TEST(LivenessFamilyTest, SilenceFiresOnceAfterGrace) {
  Simulator sim;
  InvariantOracle::Setup setup;
  setup.n = 4;
  setup.grace = Millis(100);
  InvariantOracle oracle(&sim, setup);
  sim.RunUntil(Millis(100));  // the run ends here
  oracle.Finalize();
  EXPECT_EQ(Liveness(oracle).violations, 1u);
  EXPECT_NE(Liveness(oracle).First().find("liveness-silence"), std::string::npos)
      << Liveness(oracle).First();
  oracle.Finalize();  // idempotent
  EXPECT_EQ(Liveness(oracle).violations, 1u);
  EXPECT_EQ(Safety(oracle).violations, 0u) << Safety(oracle).First();
}

TEST(LivenessFamilyTest, SilenceSkipsShortCappedAndPreGstRuns) {
  {
    // Run shorter than the grace: silence proves nothing.
    Simulator sim;
    InvariantOracle::Setup setup;
    setup.n = 4;
    setup.grace = Millis(100);
    InvariantOracle oracle(&sim, setup);
    sim.RunUntil(Millis(99));
    oracle.Finalize();
    EXPECT_EQ(Liveness(oracle).violations, 0u);
    EXPECT_EQ(Safety(oracle).violations, 0u);
  }
  {
    // Cap-truncated run: the simulator stopped, not the protocol.
    Simulator sim;
    sim.SetEventCap(1);
    sim.At(Millis(1), [] {});
    sim.At(Millis(2), [] {});  // past the cap: truncates the run
    InvariantOracle::Setup setup;
    setup.n = 4;
    setup.grace = Millis(100);
    InvariantOracle oracle(&sim, setup);
    sim.RunUntil(Millis(500));
    ASSERT_TRUE(sim.cap_hit());
    oracle.Finalize();
    EXPECT_EQ(Liveness(oracle).violations, 0u);
    EXPECT_EQ(Safety(oracle).violations, 0u);
  }
  {
    // GST never arrived (open-ended interference): nothing was promised.
    Simulator sim;
    InvariantOracle::Setup setup;
    setup.n = 4;
    setup.gst = StrategySchedule::kGstNever;
    setup.grace = Millis(100);
    InvariantOracle oracle(&sim, setup);
    sim.RunUntil(Millis(500));
    oracle.Finalize();
    EXPECT_EQ(Liveness(oracle).violations, 0u);
    EXPECT_EQ(Safety(oracle).violations, 0u);
  }
}

TEST(LivenessFamilyTest, DiagnosticsCarryConfigAndSeed) {
  Simulator sim;
  InvariantOracle::Setup setup;
  setup.n = 4;
  setup.grace = Millis(100);
  setup.config_summary = "--protocol=hotstuff1 --n=4 --seed=77";
  InvariantOracle oracle(&sim, setup);
  sim.RunUntil(Millis(200));
  oracle.Finalize();
  ASSERT_EQ(Liveness(oracle).violations, 1u);
  const std::string diag = Liveness(oracle).First();
  EXPECT_NE(diag.find("--protocol=hotstuff1 --n=4"), std::string::npos) << diag;
  EXPECT_NE(diag.find("seed=77"), std::string::npos) << diag;
  EXPECT_NE(diag.find("event#"), std::string::npos) << diag;
  EXPECT_EQ(Safety(oracle).violations, 0u) << Safety(oracle).First();
}

// --- rollback legality (Def. 4.7) --------------------------------------------

InvariantOracle::Setup RollbackSetup() {
  InvariantOracle::Setup setup;
  setup.n = 7;
  setup.committee = ResolveCommittee({}, 7);  // f = 2: epochs are 3 views wide
  // The only victim is replica 0, the first correct id.
  setup.victims = std::make_shared<const std::vector<bool>>(
      std::vector<bool>{true, false, false, false, false, false, false});
  setup.config_summary = "--n=7 --seed=5";
  return setup;
}

TEST(RollbackLegalityTest, CampaignJustifiesAVictimRollback) {
  Simulator sim;
  InvariantOracle oracle(&sim, RollbackSetup());
  oracle.OnEquivocationSent(/*leader=*/1, /*view=*/1);
  oracle.OnRollback(/*replica=*/0, 1, /*conflict_view=*/2);
  EXPECT_EQ(Safety(oracle).violations, 0u) << Safety(oracle).First();
  EXPECT_EQ(Liveness(oracle).violations, 0u) << Liveness(oracle).First();
}

TEST(RollbackLegalityTest, StaleEpochCampaignNoLongerJustifies) {
  // Regression: before the per-victim campaign records, ANY rollback at a
  // designated victim passed under the rollback attack — including one whose
  // only outstanding campaign was planted many epochs earlier and could not
  // explain the conflict (Def. 4.7 bounds the misleading window).
  Simulator sim;
  InvariantOracle oracle(&sim, RollbackSetup());
  oracle.OnEquivocationSent(1, /*view=*/1);  // epoch 0
  oracle.OnRollback(0, 1, /*conflict_view=*/12);  // epoch 4: > 2 epochs later
  ASSERT_EQ(Safety(oracle).violations, 1u);
  EXPECT_NE(Safety(oracle).First().find("stale"), std::string::npos)
      << Safety(oracle).First();
  EXPECT_EQ(Liveness(oracle).violations, 0u) << Liveness(oracle).First();
}

TEST(RollbackLegalityTest, NoCampaignMeansNoLegalRollback) {
  Simulator sim;
  InvariantOracle oracle(&sim, RollbackSetup());
  oracle.OnRollback(0, 1, /*conflict_view=*/2);
  ASSERT_EQ(Safety(oracle).violations, 1u);
  EXPECT_NE(Safety(oracle).First().find("no outstanding misleading campaign"),
            std::string::npos)
      << Safety(oracle).First();
  EXPECT_EQ(Liveness(oracle).violations, 0u) << Liveness(oracle).First();
}

TEST(RollbackLegalityTest, OneCampaignCannotLaunderTwoRollbacks) {
  Simulator sim;
  InvariantOracle oracle(&sim, RollbackSetup());
  oracle.OnEquivocationSent(1, /*view=*/4);
  oracle.OnRollback(0, 1, /*conflict_view=*/5);  // consumes the record
  EXPECT_EQ(Safety(oracle).violations, 0u);
  oracle.OnRollback(0, 1, /*conflict_view=*/5);  // nothing left to justify it
  EXPECT_EQ(Safety(oracle).violations, 1u);
  EXPECT_EQ(Liveness(oracle).violations, 0u) << Liveness(oracle).First();
}

TEST(RollbackLegalityTest, NonVictimRollbackStillFires) {
  Simulator sim;
  InvariantOracle oracle(&sim, RollbackSetup());
  oracle.OnEquivocationSent(1, /*view=*/1);
  oracle.OnRollback(/*replica=*/3, 1, /*conflict_view=*/2);
  ASSERT_EQ(Safety(oracle).violations, 1u);
  EXPECT_NE(Safety(oracle).First().find("not a designated victim"),
            std::string::npos)
      << Safety(oracle).First();
  EXPECT_EQ(Liveness(oracle).violations, 0u) << Liveness(oracle).First();
}

// --- mutation self-test --------------------------------------------------------

ExperimentConfig StallMutationConfig() {
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kHotStuff1;
  cfg.n = 7;
  cfg.batch_size = 10;
  cfg.num_clients = 20;
  cfg.duration = Millis(150);
  cfg.warmup = Millis(40);
  cfg.seed = 9;
  cfg.oracle_enabled = true;
  // The auto grace (>= 500ms) is sized for long runs; this window ends at
  // 190ms, so bound the silence threshold explicitly.
  cfg.liveness_grace = Millis(60);
  return cfg;
}

TEST(LivenessMutation, ControlRunIsClean) {
  const ExperimentResult res = RunExperiment(StallMutationConfig());
  EXPECT_TRUE(res.safety_ok);
  EXPECT_EQ(res.oracle_violations, 0u) << res.oracle_first_violation;
  EXPECT_EQ(res.liveness_violations, 0u) << res.liveness_first_violation;
  EXPECT_GT(res.committed_blocks, 0u);
}

TEST(LivenessMutation, BrokenEpochSyncIsCaughtOnlyByTheProgressMonitor) {
  // The injected pacemaker bug: replicas stop broadcasting epoch Wishes past
  // the genesis epoch, so no timeout certificate ever forms and views stop.
  // Nothing unsafe happens — no equivocation, no illegal rollback — so the
  // safety family must stay silent while the liveness family reports the
  // broken Thm B.8 promise with a reproducible diagnostic.
  ExperimentConfig cfg = StallMutationConfig();
  cfg.test_break_liveness = true;
  Experiment exp(cfg);
  const ExperimentResult res = exp.Run();

  EXPECT_TRUE(res.safety_ok);
  EXPECT_EQ(res.oracle_violations, 0u) << res.oracle_first_violation;
  EXPECT_GT(res.liveness_violations, 0u);

  const std::string& diag = res.liveness_first_violation;
  EXPECT_NE(diag.find("liveness"), std::string::npos) << diag;
  EXPECT_NE(diag.find("n=7"), std::string::npos) << diag;
  EXPECT_NE(diag.find("seed=9"), std::string::npos) << diag;
  ASSERT_NE(exp.oracle(), nullptr);
  EXPECT_GT(exp.oracle()->events_observed(), 0u);
}

// --- over-threshold tier -------------------------------------------------------

class OverThreshold : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OverThreshold, ExactlyTheExpectedOracleFamilyFires) {
  const OverThresholdCase c = OverThresholdCaseFromSeed(GetParam());
  SCOPED_TRACE(::testing::Message()
               << "case " << GetParam() << " (" << c.label
               << "): " << DescribeConfig(c.config));
  ASSERT_NE(c.expect_safety, c.expect_liveness);  // generator names one family
  const ExperimentResult res = RunExperiment(c.config);
  if (c.expect_liveness) {
    EXPECT_GT(res.liveness_violations, 0u);
    EXPECT_EQ(res.oracle_violations, 0u) << res.oracle_first_violation;
    EXPECT_TRUE(res.safety_ok);
  } else {
    EXPECT_GT(res.oracle_violations, 0u);
    EXPECT_EQ(res.liveness_violations, 0u) << res.liveness_first_violation;
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, OverThreshold,
                         ::testing::Range<uint64_t>(0, kOverThresholdCases));

// --- executor invariance -------------------------------------------------------

ExperimentConfig StallStrategyConfig() {
  // fig_liveness's over-threshold point: a 3-of-7 coalition withholds from
  // epoch 1 onwards while declaring GST at 30ms.
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kHotStuff1;
  cfg.n = 7;
  cfg.batch_size = 10;
  cfg.num_clients = 20;
  cfg.view_timer = Millis(10);
  cfg.duration = Millis(150);
  cfg.warmup = Millis(40);
  cfg.seed = 11;
  cfg.num_faulty = 3;
  cfg.strategy.entries.push_back({.from_epoch = 1, .actions = kActWithhold});
  cfg.strategy.declared_gst = Millis(30);
  cfg.liveness_grace = Millis(60);
  cfg.oracle_enabled = true;
  return cfg;
}

TEST(LivenessDeterminism, ViolatingStrategyRunIsExecutorInvariant) {
  ExperimentConfig cfg = StallStrategyConfig();
  cfg.sim_jobs = 1;
  const ExperimentResult serial = RunExperiment(cfg);
  ASSERT_GT(serial.liveness_violations, 0u);
  ASSERT_EQ(serial.oracle_violations, 0u);

  ExpectWindowedRunsMatchSerial(cfg, serial);
}

// Arming the oracle must not change the run: the GST barrier event is
// scheduled whether or not anyone listens, so enabling the monitor only adds
// observation, never behaviour. Equal event counts pin the barrier itself.
TEST(LivenessDeterminism, EnablingOraclesDoesNotPerturbAStrategyRun) {
  ExperimentConfig cfg = StallStrategyConfig();
  const ExperimentResult with_oracle = RunExperiment(cfg);
  cfg.oracle_enabled = false;
  const ExperimentResult without = RunExperiment(cfg);
  EXPECT_EQ(with_oracle.events_processed, without.events_processed);
  EXPECT_EQ(with_oracle.accepted, without.accepted);
  EXPECT_EQ(with_oracle.committed_blocks, without.committed_blocks);
  EXPECT_EQ(with_oracle.views, without.views);
  EXPECT_EQ(with_oracle.messages_sent, without.messages_sent);
  EXPECT_EQ(with_oracle.bytes_sent, without.bytes_sent);
  EXPECT_EQ(without.liveness_violations, 0u);  // nobody watching
}

}  // namespace
}  // namespace hotstuff1
