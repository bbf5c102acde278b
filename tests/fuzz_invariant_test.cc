// Randomized adversary fuzz through the online invariant oracle: every seed
// derives a full (protocol x n x fault x coalition x batch x bandwidth x
// lookahead x sim_jobs) tuple (runtime/fuzz.h) and must finish with zero
// oracle violations — the deterministic simulator makes a failing seed its
// own repro. A mutation self-test then proves the oracle is not vacuous: the
// ConsensusConfig::test_break_safety hook injects an equivocation-commit bug
// into the streamlined core and the oracle must report it with a
// (config, seed) diagnostic.

#include <gtest/gtest.h>

#include "runtime/config_schema.h"
#include "runtime/experiment.h"
#include "runtime/fuzz.h"
#include "runtime/oracle.h"
#include "tests/result_equality.h"

namespace hotstuff1 {
namespace {

class FuzzInvariant : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzInvariant, RandomizedAdversaryRunIsOracleClean) {
  const ExperimentConfig cfg = FuzzConfigFromSeed(GetParam());
  SCOPED_TRACE(::testing::Message()
               << "fuzz seed " << GetParam() << ": " << DescribeConfig(cfg)
               << " sim_jobs=" << cfg.sim_jobs
               << " lookahead=" << FormatLookahead(cfg.lookahead));
  Experiment exp(cfg);
  const ExperimentResult res = exp.Run();

  EXPECT_TRUE(res.safety_ok);
  EXPECT_EQ(res.oracle_violations, 0u) << res.oracle_first_violation;
  // Within the f fault bound every drawn tuple — including the seeds that
  // attach a withhold/delay/target-leader strategy schedule — must also
  // satisfy the Thm B.8 progress promise.
  EXPECT_EQ(res.liveness_violations, 0u) << res.liveness_first_violation;
  // The oracle must actually be observing, not silently unplugged: any run
  // enters views and commits blocks, so events must have flowed.
  ASSERT_NE(exp.oracle(), nullptr);
  EXPECT_GT(exp.oracle()->events_observed(), 0u);
}

// >= 40 randomized tuples, covering every protocol and fault kind across the
// range (the seed->tuple map is uniform over both).
INSTANTIATE_TEST_SUITE_P(Seeds, FuzzInvariant, ::testing::Range<uint64_t>(1, 45));

// --- mutation self-test -------------------------------------------------------

ExperimentConfig MutationConfig() {
  // The rollback attack is what gives the injected bug a conflicting
  // certified branch to mis-commit; without faults the bug never fires
  // (a single chain cannot equivocate).
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kHotStuff1;  // the core carrying the hook
  cfg.n = 7;
  cfg.batch_size = 10;
  cfg.duration = Millis(400);
  cfg.warmup = Millis(100);
  cfg.num_clients = 80;
  cfg.strategy = StrategySchedule::Always(kActEquivocate);
  cfg.num_faulty = 2;
  cfg.rollback_victims = 2;
  cfg.seed = 3;
  cfg.oracle_enabled = true;
  return cfg;
}

TEST(OracleMutation, ControlRunIsCleanAndAttackBites) {
  const ExperimentResult res = RunExperiment(MutationConfig());
  EXPECT_TRUE(res.safety_ok);
  EXPECT_EQ(res.oracle_violations, 0u) << res.oracle_first_violation;
  // The attack must actually produce victim rollbacks, otherwise the
  // mutated run below would pass vacuously (the bug fires on the first
  // would-be rollback).
  EXPECT_GT(res.rollback_events, 0u);
}

TEST(OracleMutation, InjectedEquivocationCommitIsDetected) {
  ExperimentConfig cfg = MutationConfig();
  cfg.test_break_safety = true;
  Experiment exp(cfg);
  const ExperimentResult res = exp.Run();

  // The oracle fires online.
  EXPECT_GT(res.oracle_violations, 0u);

  // The first diagnostic is a self-contained repro: it names a violated
  // invariant, the configuration and the seed.
  const std::string& diag = res.oracle_first_violation;
  EXPECT_NE(diag.find("invariant"), std::string::npos) << diag;
  EXPECT_NE(diag.find("--protocol=hotstuff1 "), std::string::npos) << diag;
  EXPECT_NE(diag.find("--n=7 "), std::string::npos) << diag;
  EXPECT_NE(diag.find("seed=3"), std::string::npos) << diag;

  // The equivocating commit itself surfaces as a commit-conflict in the
  // violation log (alongside the spec/client contradictions it causes).
  ASSERT_NE(exp.oracle(), nullptr);
  bool saw_commit_conflict = false;
  for (const std::string& v : exp.oracle()->verdict(InvariantOracle::kSafety).log) {
    saw_commit_conflict =
        saw_commit_conflict || v.find("commit-conflict") != std::string::npos;
  }
  EXPECT_TRUE(saw_commit_conflict);
}

TEST(OracleMutation, CoarseCheckAloneMissesCommitThenCrashEquivocation) {
  // This is why the oracle must watch *online*: the buggy replica commits
  // the abandoned branch and then goes silent, and the end-of-run prefix
  // comparison (Experiment::CheckSafety) skips crashed replicas — so the
  // coarse check reports a clean run even though a correct-then-silent
  // replica exposed an equivocated commit to its clients.
  ExperimentConfig cfg = MutationConfig();
  cfg.test_break_safety = true;
  cfg.oracle_enabled = false;
  const ExperimentResult res = RunExperiment(cfg);
  EXPECT_TRUE(res.safety_ok);           // blind spot, by construction
  EXPECT_EQ(res.oracle_violations, 0u);  // nobody watching
}

TEST(OracleMutation, ViolationDiagnosticsAreExecutorInvariant) {
  // The byte-identical contract must hold for *violating* runs too: the
  // verdict, the violation count, and the first diagnostic (which embeds
  // the oracle's event counter and a virtual timestamp) must not depend on
  // the executor shape. An all-clean sweep would prove much less.
  ExperimentConfig cfg = MutationConfig();
  cfg.test_break_safety = true;
  cfg.sim_jobs = 1;
  const ExperimentResult serial = RunExperiment(cfg);
  ASSERT_GT(serial.oracle_violations, 0u);

  ExpectWindowedRunsMatchSerial(cfg, serial);
}

// Enabling the oracle must be a pure observation: every deterministic result
// field matches an identical run without it.
TEST(OracleObserver, EnablingOracleDoesNotPerturbTheRun) {
  ExperimentConfig cfg = MutationConfig();
  const ExperimentResult with_oracle = RunExperiment(cfg);
  cfg.oracle_enabled = false;
  const ExperimentResult without = RunExperiment(cfg);
  EXPECT_EQ(with_oracle.accepted, without.accepted);
  EXPECT_EQ(with_oracle.committed_blocks, without.committed_blocks);
  EXPECT_EQ(with_oracle.views, without.views);
  EXPECT_EQ(with_oracle.rollback_events, without.rollback_events);
  EXPECT_EQ(with_oracle.messages_sent, without.messages_sent);
  EXPECT_EQ(with_oracle.bytes_sent, without.bytes_sent);
}

}  // namespace
}  // namespace hotstuff1
