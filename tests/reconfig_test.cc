// Epoch-based committee reconfiguration: schedule grammar, membership
// arithmetic, end-to-end churn runs under both oracles, determinism across
// executor shapes, and the oracle mutation self-test (a forged cross-
// membership commit that ONLY the invariant oracle's cross-epoch lattice
// can see — end-of-run CheckSafety skips the forger).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "consensus/committee.h"
#include "runtime/experiment.h"
#include "tests/result_equality.h"

namespace hotstuff1 {
namespace {

// --- grammar ------------------------------------------------------------------

TEST(CommitteeScheduleTest, ParsesStepsAndRanges) {
  CommitteeSchedule s;
  std::string error;
  ASSERT_TRUE(ParseCommitteeSchedule("0:0-15;4:0-11;8:0-3+8-19", &s, &error))
      << error;
  ASSERT_EQ(s.steps.size(), 3u);
  EXPECT_EQ(s.steps[0].from_epoch, 0u);
  EXPECT_EQ(s.steps[0].committee.n(), 16u);
  EXPECT_EQ(s.steps[1].from_epoch, 4u);
  EXPECT_EQ(s.steps[1].committee.n(), 12u);
  EXPECT_EQ(s.steps[2].from_epoch, 8u);
  EXPECT_EQ(s.steps[2].committee.n(), 16u);
  EXPECT_TRUE(s.steps[2].committee.Contains(3));
  EXPECT_FALSE(s.steps[2].committee.Contains(4));
  EXPECT_TRUE(s.steps[2].committee.Contains(8));
  EXPECT_EQ(s.MaxMember(), 19u);
  EXPECT_EQ(s.views_per_epoch, 0u);  // unresolved until Experiment::Setup
}

TEST(CommitteeScheduleTest, EmptyTextIsNullSchedule) {
  CommitteeSchedule s;
  ASSERT_TRUE(ParseCommitteeSchedule("", &s));
  EXPECT_TRUE(s.empty());
}

TEST(CommitteeScheduleTest, FormatParseRoundTrips) {
  for (const char* text :
       {"0:0-3", "0:0-15;4:0-11", "0:0-15;4:0-11;8:0-3+8-19",
        "0:0+1+2+3", "0:0-6;2:1-5+8;5:0-6"}) {
    CommitteeSchedule s;
    std::string error;
    ASSERT_TRUE(ParseCommitteeSchedule(text, &s, &error)) << text << ": " << error;
    CommitteeSchedule reparsed;
    ASSERT_TRUE(
        ParseCommitteeSchedule(FormatCommitteeSchedule(s), &reparsed, &error))
        << FormatCommitteeSchedule(s) << ": " << error;
    EXPECT_EQ(s, reparsed) << text;
  }
}

TEST(CommitteeScheduleTest, RejectsMalformedInput) {
  CommitteeSchedule s;
  for (const char* bad :
       {"0-3",            // missing epoch prefix
        "1:0-3",          // must start at epoch 0
        "0:0-3;0:0-3",    // epochs must strictly increase
        "0:0-3;2:0-3;1:0-3",
        "0:0-2",          // < 4 members
        "0:3-0",          // inverted range
        "0:0-3+2-5",      // duplicate ids across ranges
        "0:+0-3",         // sign prefix
        "0: 0-3",         // whitespace
        "x:0-3",          // non-numeric epoch
        "0:0-999999999",  // id past the quorum bitset: bounded before expanding
        "0:0-3+512",
        "0:"}) {          // empty committee
    std::string error;
    EXPECT_FALSE(ParseCommitteeSchedule(bad, &s, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(CommitteeScheduleTest, MembershipArithmetic) {
  CommitteeSchedule s;
  ASSERT_TRUE(ParseCommitteeSchedule("0:0-6;2:0-3", &s));
  s.views_per_epoch = 3;  // n=7 -> f=2 -> f+1
  EXPECT_EQ(s.EpochOf(0), 0u);
  EXPECT_EQ(s.EpochOf(5), 1u);
  EXPECT_EQ(s.EpochOf(6), 2u);
  EXPECT_EQ(s.AtView(5).n(), 7u);
  EXPECT_EQ(s.AtView(6).n(), 4u);
  EXPECT_EQ(s.AtEpoch(99).n(), 4u);  // last step holds forever
  // Round-robin over the ACTIVE committee, not the allocation.
  EXPECT_EQ(s.LeaderOfView(5), 5u);       // 5 % 7
  EXPECT_EQ(s.LeaderOfView(6), 2u);       // 6 % 4
  EXPECT_EQ(s.LeaderOfView(9), 1u);       // 9 % 4
}

TEST(CommitteeScheduleTest, ResolveTurnsEmptyIntoTheOneStepFullCommittee) {
  // The static committee is the one-step schedule 0:0-(n-1); its leaders
  // and quorum are the static arithmetic, view % n and n - f.
  const CommitteeSchedule full = ResolveCommittee({}, 7);
  EXPECT_EQ(FormatCommitteeSchedule(full), "0:0-6");
  EXPECT_EQ(full.views_per_epoch, 3u);  // f = 2
  for (uint64_t v = 0; v < 30; ++v) EXPECT_EQ(full.LeaderOfView(v), v % 7) << v;
  EXPECT_EQ(full.AtView(29).quorum(), 5u);

  // A given schedule keeps its steps and gets the geometry stamped.
  CommitteeSchedule given;
  ASSERT_TRUE(ParseCommitteeSchedule("0:0-15;4:0-11", &given));
  const CommitteeSchedule resolved = ResolveCommittee(given, 16);
  EXPECT_EQ(resolved.steps, given.steps);
  EXPECT_EQ(resolved.views_per_epoch, 6u);  // f = 5
}

// --- end-to-end ---------------------------------------------------------------

ExperimentConfig BaseConfig(ProtocolKind protocol, uint32_t n) {
  ExperimentConfig cfg;
  cfg.protocol = protocol;
  cfg.n = n;
  cfg.batch_size = 10;
  cfg.num_clients = 20;
  cfg.duration = Millis(150);
  cfg.warmup = Millis(40);
  cfg.seed = 7;
  cfg.oracle_enabled = true;
  return cfg;
}

TEST(ReconfigExperimentTest, TrivialScheduleIsByteIdenticalToStatic) {
  // A one-step schedule naming the full committee must reproduce the run
  // with no --reconfig exactly: that run resolves its empty schedule to the
  // same one step.
  for (ProtocolKind protocol :
       {ProtocolKind::kHotStuff, ProtocolKind::kHotStuff2,
        ProtocolKind::kHotStuff1Basic, ProtocolKind::kHotStuff1,
        ProtocolKind::kHotStuff1Slotted}) {
    ExperimentConfig cfg = BaseConfig(protocol, 7);
    const ExperimentResult static_run = RunExperiment(cfg);
    ASSERT_TRUE(ParseCommitteeSchedule("0:0-6", &cfg.reconfig));
    const ExperimentResult trivial = RunExperiment(cfg);
    SCOPED_TRACE(ProtocolName(protocol));
    ExpectSameResult(trivial, static_run);
    EXPECT_GT(trivial.committed_txns, 0u);
    EXPECT_EQ(trivial.committee_changes, 0u);
    EXPECT_EQ(trivial.final_committee_n, 7u);
  }
}

TEST(ReconfigExperimentTest, ShrinkGrowChurnStaysClean) {
  // Shrink 0-7 -> 0-4 at epoch 1, regrow at epoch 3: commits must keep
  // flowing through both boundaries and both oracles must stay silent.
  for (ProtocolKind protocol :
       {ProtocolKind::kHotStuff, ProtocolKind::kHotStuff2,
        ProtocolKind::kHotStuff1Basic, ProtocolKind::kHotStuff1,
        ProtocolKind::kHotStuff1Slotted}) {
    ExperimentConfig cfg = BaseConfig(protocol, 8);
    ASSERT_TRUE(ParseCommitteeSchedule("0:0-7;1:0-4;3:0-7", &cfg.reconfig));
    const ExperimentResult res = RunExperiment(cfg);
    SCOPED_TRACE(ProtocolName(protocol));
    EXPECT_TRUE(res.safety_ok);
    EXPECT_EQ(res.oracle_violations, 0u) << res.oracle_first_violation;
    EXPECT_EQ(res.liveness_violations, 0u) << res.liveness_first_violation;
    EXPECT_GT(res.committed_txns, 0u);
    EXPECT_EQ(res.committee_changes, 2u);
    EXPECT_EQ(res.final_committee_n, 8u);
  }
}

TEST(ReconfigExperimentTest, RotationMovesTheActiveSet) {
  // Rotate to a window that drops 0-1 and seats 8-9: voted-out replicas keep
  // executing as standbys (clients still get answers) while the new members
  // vote. Replica 0's observer view keeps advancing even when out.
  ExperimentConfig cfg = BaseConfig(ProtocolKind::kHotStuff1, 10);
  ASSERT_TRUE(ParseCommitteeSchedule("0:0-9;2:2-9;4:0-9", &cfg.reconfig));
  const ExperimentResult res = RunExperiment(cfg);
  EXPECT_TRUE(res.safety_ok);
  EXPECT_EQ(res.oracle_violations, 0u) << res.oracle_first_violation;
  EXPECT_GT(res.committed_txns, 0u);
  EXPECT_EQ(res.committee_changes, 2u);
  EXPECT_EQ(res.final_committee_n, 10u);
}

TEST(ReconfigExperimentTest, ChurnIsByteIdenticalAcrossExecutors) {
  ExperimentConfig cfg = BaseConfig(ProtocolKind::kHotStuff1Slotted, 8);
  ASSERT_TRUE(ParseCommitteeSchedule("0:0-7;1:0-4;3:0-7", &cfg.reconfig));
  cfg.sim_jobs = 1;
  const ExperimentResult serial = RunExperiment(cfg);
  EXPECT_GT(serial.committed_txns, 0u);
  ExpectWindowedRunsMatchSerial(cfg, serial);
}

TEST(ReconfigExperimentTest, PartitionDuringChurnHealsAndStaysClean) {
  // A 4|4 split of the full committee stalls quorum for one strategy epoch,
  // then heals; the committee also shrinks mid-run. Progress must resume and
  // both oracles stay silent (the partition entry is bounded, so the derived
  // GST is finite and the liveness monitor arms).
  ExperimentConfig cfg = BaseConfig(ProtocolKind::kHotStuff1, 8);
  cfg.duration = Millis(200);
  ASSERT_TRUE(ParseCommitteeSchedule("0:0-7;4:0-4", &cfg.reconfig));
  std::string error;
  ASSERT_TRUE(ParseStrategySchedule("1-2:partition=0-3|4-7;epoch=20000", &cfg.strategy,
                                    &error))
      << error;
  const ExperimentResult res = RunExperiment(cfg);
  EXPECT_TRUE(res.safety_ok);
  EXPECT_EQ(res.oracle_violations, 0u) << res.oracle_first_violation;
  EXPECT_EQ(res.liveness_violations, 0u) << res.liveness_first_violation;
  EXPECT_GT(res.committed_txns, 0u);
}

// --- the mutation self-test ---------------------------------------------------

TEST(ReconfigExperimentTest, OracleCatchesForgedCrossMembershipCommit) {
  // test_break_reconfig makes every voted-out replica forge a commit on top
  // of its committed tip at the boundary, then fall silent. End-of-run
  // CheckSafety skips crashed replicas, so ONLY the invariant oracle — whose
  // height-keyed commit lattice survives the membership change — can see the
  // fork between the forged block and the new committee's real chain.
  ExperimentConfig cfg = BaseConfig(ProtocolKind::kHotStuff1, 8);
  ASSERT_TRUE(ParseCommitteeSchedule("0:0-3;2:4-7", &cfg.reconfig));
  cfg.test_break_reconfig = true;
  const ExperimentResult res = RunExperiment(cfg);
  EXPECT_TRUE(res.safety_ok) << "CheckSafety must NOT see the forgery";
  EXPECT_GT(res.oracle_violations, 0u) << "the oracle lattice must";
  EXPECT_NE(res.oracle_first_violation.find("commit-conflict"),
            std::string::npos)
      << res.oracle_first_violation;
  // The diagnostic names the epochs on both sides of the fork.
  EXPECT_NE(res.oracle_first_violation.find("epoch"), std::string::npos)
      << res.oracle_first_violation;

  // Control: the identical schedule without the mutation is clean, so the
  // signal above is the forgery, not the reconfiguration.
  cfg.test_break_reconfig = false;
  const ExperimentResult clean = RunExperiment(cfg);
  EXPECT_TRUE(clean.safety_ok);
  EXPECT_EQ(clean.oracle_violations, 0u) << clean.oracle_first_violation;
  EXPECT_GT(clean.committed_txns, 0u);
}

}  // namespace
}  // namespace hotstuff1
