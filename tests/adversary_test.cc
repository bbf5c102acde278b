// MakeAdversaryPlan edge cases: empty plans, full-f coalitions at the
// smallest and the widest supported committees, rollback-victim clamping,
// the shared faulty and victim masks the oracle and the attack code both
// consume, and the strategy-schedule grammar.

#include <gtest/gtest.h>

#include <algorithm>

#include "runtime/adversary.h"

namespace hotstuff1 {
namespace {

// A resolved "0-:<actions>" schedule, as Experiment::Setup hands it over.
StrategySchedule Always(uint32_t actions) {
  StrategySchedule s = StrategySchedule::Always(actions);
  s.epoch_length = 1000;
  return s;
}

size_t Count(const std::vector<bool>& mask) {
  return static_cast<size_t>(std::count(mask.begin(), mask.end(), true));
}

TEST(AdversaryPlanTest, CountZeroIsAnEmptyPlan) {
  const AdversaryPlan plan = MakeAdversaryPlan(4, 0, 0, Always(kActCrash));
  ASSERT_NE(plan.faulty_mask, nullptr);
  ASSERT_EQ(plan.faulty_mask->size(), 4u);
  EXPECT_EQ(Count(*plan.faulty_mask), 0u);
  for (ReplicaId r = 0; r < 4; ++r) {
    EXPECT_FALSE((*plan.faulty_mask)[r]) << "replica " << r;
    EXPECT_EQ(plan.SpecFor(r).schedule, nullptr) << "replica " << r;
  }
}

TEST(AdversaryPlanTest, FullCoalitionAtSmallestCommittee) {
  // n = 4, f = 1: the lone faulty replica sits at id 1 so round-robin
  // leadership reaches it every rotation; id 0 stays the honest observer.
  const AdversaryPlan plan = MakeAdversaryPlan(4, 1, 0, Always(kActTailFork));
  EXPECT_EQ(Count(*plan.faulty_mask), 1u);
  EXPECT_FALSE((*plan.faulty_mask)[0]);
  EXPECT_TRUE((*plan.faulty_mask)[1]);
  const AdversarySpec spec = plan.SpecFor(1);
  EXPECT_TRUE(spec.TailForks(/*now=*/0));
  EXPECT_TRUE(spec.collude);
  EXPECT_EQ(spec.faulty, plan.faulty_mask);  // shared, not copied
}

TEST(AdversaryPlanTest, FullCoalitionAtN128) {
  // n = 128, f = 42: contiguous ids 1..42, everything above honest.
  const uint32_t f = (128 - 1) / 3;
  const AdversaryPlan plan = MakeAdversaryPlan(128, f, 0, Always(kActCrash));
  ASSERT_EQ(Count(*plan.faulty_mask), f);
  ASSERT_EQ(plan.faulty_mask->size(), 128u);
  EXPECT_FALSE((*plan.faulty_mask)[0]);
  EXPECT_TRUE((*plan.faulty_mask)[1]);
  EXPECT_TRUE((*plan.faulty_mask)[f]);
  EXPECT_FALSE((*plan.faulty_mask)[f + 1]);
  EXPECT_FALSE((*plan.faulty_mask)[127]);
  // Crash faults never collude (there is nobody left to collude with).
  EXPECT_FALSE(plan.SpecFor(1).collude);
}

TEST(AdversaryPlanTest, RollbackVictimsClampToF) {
  // Asking for more victims than f would model a client-safety-breaking
  // adversary (an n-f speculative quorum on the doomed branch), not §7.3.
  const AdversaryPlan plan =
      MakeAdversaryPlan(7, 2, /*rollback_victims=*/6, Always(kActEquivocate));
  ASSERT_NE(plan.victims, nullptr);
  EXPECT_EQ(Count(*plan.victims), 2u);  // f = 2 at n = 7
  // The first correct ids: 0, then 3 (1 and 2 are the coalition).
  EXPECT_EQ(*plan.victims,
            (std::vector<bool>{true, false, false, true, false, false, false}));
  EXPECT_EQ(plan.SpecFor(1).victims, plan.victims);  // spec carries the clamp
  // In-range requests pass through untouched.
  EXPECT_EQ(Count(*MakeAdversaryPlan(7, 2, 1, Always(kActEquivocate)).victims), 1u);
  EXPECT_EQ(Count(*MakeAdversaryPlan(32, 10, 10, Always(kActEquivocate)).victims),
            10u);
}

TEST(AdversaryPlanTest, SpecForHonestReplicaIsInert) {
  const AdversaryPlan plan = MakeAdversaryPlan(7, 2, 2, Always(kActEquivocate));
  const AdversarySpec honest = plan.SpecFor(0);
  EXPECT_FALSE(honest.collude);
  EXPECT_EQ(honest.faulty, nullptr);
  EXPECT_EQ(honest.victims, nullptr);
  EXPECT_EQ(honest.schedule, nullptr);
  EXPECT_FALSE(honest.Equivocates(0));
}

TEST(AdversaryPlanTest, OneVictimMaskForEverySpec) {
  // The attacking leaders and the invariant oracle read the very same mask
  // object, so their victim designations cannot drift apart.
  const AdversaryPlan plan = MakeAdversaryPlan(16, 5, 5, Always(kActEquivocate));
  ASSERT_NE(plan.victims, nullptr);
  for (ReplicaId r = 1; r <= 5; ++r) {
    EXPECT_EQ(plan.SpecFor(r).victims.get(), plan.victims.get()) << r;
  }
  // Without an equivocate entry nobody is a designated victim.
  EXPECT_EQ(MakeAdversaryPlan(16, 5, 5, Always(kActSlow)).victims, nullptr);
  EXPECT_EQ(MakeAdversaryPlan(16, 5, 5).victims, nullptr);
}

TEST(AdversaryPlanTest, CollusionExactlyForEquivocateSlowAndTailFork) {
  for (const uint32_t action :
       {kActEquivocate, kActWithhold, kActDelay, kActTargetLeader, kActPartition,
        kActOutage, kActJitter, kActSlow, kActTailFork, kActCrash}) {
    const bool want =
        action == kActEquivocate || action == kActSlow || action == kActTailFork;
    EXPECT_EQ(MakeAdversaryPlan(7, 2, 2, Always(action)).SpecFor(1).collude, want)
        << "action " << action;
  }
}

// --- strategy-schedule text form ---------------------------------------------

TEST(StrategyScheduleTest, ParsesEntriesSegmentsAndRanges) {
  StrategySchedule s;
  std::string error;
  ASSERT_TRUE(ParseStrategySchedule(
      "0:withhold;1-3:delay=5000,target-leader;4-:equivocate;epoch=20000;"
      "gst=90000",
      &s, &error))
      << error;
  ASSERT_EQ(s.entries.size(), 3u);
  EXPECT_EQ(s.entries[0].from_epoch, 0u);
  EXPECT_EQ(s.entries[0].to_epoch, 1u);  // bare "<from>" covers one epoch
  EXPECT_EQ(s.entries[0].actions, kActWithhold);
  EXPECT_EQ(s.entries[1].from_epoch, 1u);
  EXPECT_EQ(s.entries[1].to_epoch, 3u);  // exclusive
  EXPECT_EQ(s.entries[1].actions, kActDelay | kActTargetLeader);
  EXPECT_EQ(s.entries[1].delay, 5000);
  EXPECT_EQ(s.entries[2].to_epoch, kEpochForever);
  EXPECT_EQ(s.entries[2].actions, kActEquivocate);
  EXPECT_EQ(s.epoch_length, 20000);
  EXPECT_EQ(s.declared_gst, 90000);
}

TEST(StrategyScheduleTest, FormatParseRoundTrips) {
  for (const char* text :
       {"", "0-:withhold", "1-3:delay=5000;gst=90000",
        "0:equivocate;2-4:withhold,target-leader;epoch=30000",
        "0-:delay=250;gst=0", "0-:slow", "0-:tailfork", "0-:crash",
        "0-:tailfork;1-3:withhold", "2-5:slow,tailfork;epoch=1000"}) {
    StrategySchedule s;
    std::string error;
    ASSERT_TRUE(ParseStrategySchedule(text, &s, &error)) << text << ": " << error;
    StrategySchedule reparsed;
    ASSERT_TRUE(ParseStrategySchedule(FormatStrategySchedule(s), &reparsed,
                                      &error))
        << FormatStrategySchedule(s) << ": " << error;
    EXPECT_EQ(s, reparsed) << text;
  }
}

TEST(StrategyScheduleTest, RejectsMalformedInput) {
  StrategySchedule s;
  for (const char* bad :
       {":withhold",      // missing range
        "0-",             // missing actions
        "0:jam",          // unknown action
        "3-1:withhold",   // inverted range
        "0:delay",        // delay without duration
        "0:delay=x",      // non-numeric duration
        "epoch=",         // missing value
        "gst=-5",         // negative
        "epoch=1000"}) {  // segments only, no entries
    std::string error;
    EXPECT_FALSE(ParseStrategySchedule(bad, &s, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(StrategyScheduleTest, ParsesLeaderMisbehaviours) {
  StrategySchedule s;
  std::string error;
  ASSERT_TRUE(ParseStrategySchedule("0-:slow;1-3:tailfork", &s, &error)) << error;
  ASSERT_EQ(s.entries.size(), 2u);
  EXPECT_EQ(s.entries[0].actions, kActSlow);
  EXPECT_EQ(s.entries[1].actions, kActTailFork);
  EXPECT_EQ(s.entries[1].from_epoch, 1u);
  EXPECT_EQ(s.entries[1].to_epoch, 3u);
  ASSERT_TRUE(ParseStrategySchedule("0-:crash", &s, &error)) << error;
  EXPECT_EQ(s, StrategySchedule::Always(kActCrash));
  EXPECT_EQ(FormatStrategySchedule(s), "0-:crash");
  // None of the three delays stabilization: GST and the liveness oracle's
  // arming stay where the rest of the schedule puts them.
  s.epoch_length = 1000;
  for (const uint32_t action : {kActSlow, kActTailFork, kActCrash}) {
    s.entries = {{.actions = action}};
    EXPECT_EQ(s.ResolvedGst(), 0) << action;
  }
}

TEST(StrategyScheduleTest, CrashOnlyCoversTheWholeRun) {
  // A crashed coalition is down from the start and never recovers, so
  // "0-:crash" is the only spelling; anything narrower is rejected.
  StrategySchedule s;
  for (const char* bad : {"2-:crash", "0-3:crash", "1:crash", "0:crash",
                          "0-:crash,withhold", "0-:slow,crash"}) {
    std::string error;
    EXPECT_FALSE(ParseStrategySchedule(bad, &s, &error)) << bad;
    EXPECT_NE(error.find("0-:crash"), std::string::npos) << bad << ": " << error;
  }
  // Other entries may still run alongside it.
  EXPECT_TRUE(ParseStrategySchedule("0-:crash;1-3:partition=0-3|4-7", &s));
}

TEST(StrategyScheduleTest, BoundsIdListsBeforeExpandingThem) {
  // A range is expanded id by id, so an unbounded upper end used to allocate
  // gigabytes (and truncate to uint32) before any check ran.
  StrategySchedule s;
  for (const char* bad :
       {"0:outage=0-9000000000", "0:outage=5", "0:partition=0-3|4-512",
        "0:partition=0-99999999999|0", "4294967295:withhold",
        "0-4294967295:withhold"}) {
    std::string error;
    EXPECT_FALSE(ParseStrategySchedule(bad, &s, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  EXPECT_TRUE(ParseStrategySchedule("0:outage=0-4;1:partition=0-255|256-511", &s));
}

TEST(StrategyScheduleTest, RejectsNonCanonicalNumbers) {
  // Regression: numbers used to go through strtoll, which accepts sign
  // prefixes and leading whitespace — so "0:delay=+5" parsed but its
  // round-trip "0:delay=5" compared unequal, breaking schedule dedup keys.
  StrategySchedule s;
  for (const char* bad :
       {"0:delay=+5",     // sign prefix
        "0:delay= 5",     // leading space
        "gst= 5",         // leading space after segment '='
        "+0:withhold",    // signed epoch
        "0- 3:withhold",  // space inside range
        "0:delay=99999999999999999999"}) {  // overflows int64
    std::string error;
    EXPECT_FALSE(ParseStrategySchedule(bad, &s, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(StrategyScheduleTest, ParsesInterferenceActions) {
  StrategySchedule s;
  std::string error;
  ASSERT_TRUE(ParseStrategySchedule(
      "0-3:partition=0-7|8-15;4:outage=0+2;5-:jitter=50;epoch=20000", &s,
      &error))
      << error;
  ASSERT_EQ(s.entries.size(), 3u);
  EXPECT_EQ(s.entries[0].actions, kActPartition);
  ASSERT_EQ(s.entries[0].partition.size(), 2u);
  EXPECT_EQ(s.entries[0].partition[0],
            (std::vector<uint32_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(s.entries[0].partition[1],
            (std::vector<uint32_t>{8, 9, 10, 11, 12, 13, 14, 15}));
  EXPECT_EQ(s.entries[1].actions, kActOutage);
  EXPECT_EQ(s.entries[1].outage_regions, (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(s.entries[2].actions, kActJitter);
  EXPECT_EQ(s.entries[2].jitter_pct, 50u);
  // All three are message interference, so they push the derived GST.
  EXPECT_EQ(s.ResolvedGst(), StrategySchedule::kGstNever);  // open-ended
}

TEST(StrategyScheduleTest, InterferenceFormatParseRoundTrips) {
  for (const char* text :
       {"0-3:partition=0-7|8-15", "0:partition=0+2+4|1+3|5-9;epoch=5000",
        "2:outage=0+2,jitter=50", "0-:jitter=1000;gst=0",
        "1-2:delay=100,partition=0-3|4-7"}) {
    StrategySchedule s;
    std::string error;
    ASSERT_TRUE(ParseStrategySchedule(text, &s, &error)) << text << ": " << error;
    StrategySchedule reparsed;
    ASSERT_TRUE(
        ParseStrategySchedule(FormatStrategySchedule(s), &reparsed, &error))
        << FormatStrategySchedule(s) << ": " << error;
    EXPECT_EQ(s, reparsed) << text;
  }
}

TEST(StrategyScheduleTest, RejectsMalformedInterference) {
  StrategySchedule s;
  for (const char* bad :
       {"0:partition=0-7",        // single group partitions nothing
        "0:partition=0-3|3-7",    // id 3 in two groups
        "0:partition=0-3|",       // empty group
        "0:partition=3-1|4-7",    // inverted range
        "0:outage=",              // missing regions
        "0:jitter=0",             // below 1%
        "0:jitter=1001",          // above 1000%
        "0:jitter=+5"}) {         // non-canonical number
    std::string error;
    EXPECT_FALSE(ParseStrategySchedule(bad, &s, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(StrategyScheduleTest, ActionsAtFollowsEpochBoundaries) {
  StrategySchedule s;
  ASSERT_TRUE(ParseStrategySchedule("1-3:withhold;2:delay=100;epoch=1000", &s));
  EXPECT_EQ(s.ActionsAt(0), kActNone);          // epoch 0
  EXPECT_EQ(s.ActionsAt(999), kActNone);
  EXPECT_EQ(s.ActionsAt(1000), kActWithhold);   // epoch 1
  EXPECT_EQ(s.ActionsAt(2500), kActWithhold | kActDelay);  // overlap in 2
  EXPECT_EQ(s.ActionsAt(3000), kActNone);       // to_epoch is exclusive
}

TEST(StrategyScheduleTest, ResolvedGstPrefersDeclaredThenLastInterference) {
  StrategySchedule s;
  ASSERT_TRUE(ParseStrategySchedule("1-3:withhold;epoch=1000", &s));
  EXPECT_EQ(s.ResolvedGst(), 3000);  // end of the last interfering entry
  ASSERT_TRUE(ParseStrategySchedule("1-3:withhold;epoch=1000;gst=500", &s));
  EXPECT_EQ(s.ResolvedGst(), 500);   // explicit declaration wins
  // Open-ended interference with no declaration promises nothing.
  ASSERT_TRUE(ParseStrategySchedule("0-:withhold;epoch=1000", &s));
  EXPECT_EQ(s.ResolvedGst(), StrategySchedule::kGstNever);
  // Equivocation is not message interference: the §7.3 campaign does not
  // delay stabilization by itself.
  ASSERT_TRUE(ParseStrategySchedule("0-:equivocate;epoch=1000", &s));
  EXPECT_EQ(s.ResolvedGst(), 0);
}

TEST(StrategyScheduleTest, PlanThreadsScheduleAndEquivocateTurnsCollusionOn) {
  StrategySchedule s;
  ASSERT_TRUE(ParseStrategySchedule("0-:equivocate;epoch=1000", &s));
  const AdversaryPlan plan = MakeAdversaryPlan(7, 2, /*rollback_victims=*/2, s);
  ASSERT_NE(plan.schedule, nullptr);
  const AdversarySpec spec = plan.SpecFor(1);
  EXPECT_EQ(spec.schedule, plan.schedule);  // shared, not copied
  EXPECT_TRUE(spec.collude);                // the campaign needs the coalition
  EXPECT_TRUE(spec.Equivocates(/*now=*/0));
  // A pure-withhold schedule does not collude and never equivocates.
  ASSERT_TRUE(ParseStrategySchedule("0-:withhold;epoch=1000", &s));
  const AdversaryPlan w = MakeAdversaryPlan(7, 2, 0, s);
  EXPECT_FALSE(w.SpecFor(1).collude);
  EXPECT_FALSE(w.SpecFor(1).Equivocates(0));
  EXPECT_TRUE(w.SpecFor(1).Withholds(0));
  EXPECT_FALSE(w.SpecFor(0).Withholds(0));  // honest replicas are inert
}

}  // namespace
}  // namespace hotstuff1
