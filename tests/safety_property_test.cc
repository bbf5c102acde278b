// Property sweeps: safety (Thm. B.5), client safety (Cor. B.10), liveness
// (Thm. B.8) and state-machine agreement across protocols x faults x seeds.
// Determinism of the simulator makes every failure reproducible from its
// parameter tuple.

#include <gtest/gtest.h>

#include <tuple>

#include "runtime/experiment.h"

namespace hotstuff1 {
namespace {

// The fault is the coalition's behaviour for the whole run: a strategy
// action, i.e. the schedule "0-:<action>" (kActNone = no fault).
using SweepParam = std::tuple<ProtocolKind, uint32_t /*fault*/, uint64_t /*seed*/>;

std::string ParamName(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto [kind, fault, seed] = info.param;
  std::string name;
  switch (kind) {
    case ProtocolKind::kHotStuff: name = "HotStuff"; break;
    case ProtocolKind::kHotStuff2: name = "HotStuff2"; break;
    case ProtocolKind::kHotStuff1Basic: name = "Basic"; break;
    case ProtocolKind::kHotStuff1: name = "HS1"; break;
    case ProtocolKind::kHotStuff1Slotted: name = "Slotted"; break;
  }
  switch (fault) {
    case kActNone: name += "_NoFault"; break;
    case kActCrash: name += "_Crash"; break;
    case kActSlow: name += "_Slow"; break;
    case kActTailFork: name += "_TailFork"; break;
    case kActEquivocate: name += "_Rollback"; break;
  }
  return name + "_s" + std::to_string(seed);
}

class SafetySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SafetySweep, SafetyAndClientSafetyHold) {
  const auto [kind, fault, seed] = GetParam();
  ExperimentConfig cfg;
  cfg.protocol = kind;
  cfg.n = 7;  // f = 2
  cfg.batch_size = 10;
  cfg.duration = Millis(500);
  cfg.warmup = Millis(100);
  cfg.num_clients = 120;
  cfg.view_timer = Millis(8);
  cfg.strategy = StrategySchedule::Always(fault);
  cfg.num_faulty = fault == kActNone ? 0 : 2;
  cfg.rollback_victims = 2;
  cfg.seed = seed;
  cfg.track_accepted = true;

  Experiment exp(cfg);
  const ExperimentResult res = exp.Run();

  // Theorem B.5 (safety): equal-position committed blocks agree.
  EXPECT_TRUE(res.safety_ok);

  // Theorem B.8 (liveness): with at most f faulty replicas, correct
  // replicas keep committing.
  EXPECT_GT(res.accepted, 20u);

  // Corollary B.10 (client safety): every block accepted by a client
  // (speculatively or not) is committed by some correct replica, modulo the
  // in-flight tail at the end of the run.
  const SimTime cutoff = cfg.warmup + cfg.duration - Millis(150);
  for (const auto& rec : exp.clients().accepted_records()) {
    if (rec.time > cutoff) continue;
    bool committed = false;
    for (const auto& r : exp.replicas()) {
      if (r->ledger().IsCommitted(rec.block_hash)) {
        committed = true;
        break;
      }
    }
    EXPECT_TRUE(committed) << "block " << rec.block_hash.Short()
                           << " accepted but never committed";
    if (!committed) break;
  }

  // State-machine agreement: identical committed prefixes imply identical
  // re-executed states.
  size_t min_len = SIZE_MAX;
  for (uint32_t id = 0; id < cfg.n; ++id) {
    if (id >= 1 && id <= cfg.num_faulty && fault != kActNone) continue;
    min_len = std::min(min_len,
                       exp.replicas()[id]->ledger().committed_chain().size());
  }
  ASSERT_GT(min_len, 1u);
  uint64_t reference_fp = 0;
  bool first = true;
  for (uint32_t id = 0; id < cfg.n; ++id) {
    if (id >= 1 && id <= cfg.num_faulty && fault != kActNone) continue;
    KvState kv;
    const auto& chain = exp.replicas()[id]->ledger().committed_chain();
    for (size_t h = 1; h < min_len; ++h) {
      for (const Transaction& t : chain[h]->txns()) kv.ApplyTxn(t, nullptr);
    }
    if (first) {
      reference_fp = kv.Fingerprint();
      first = false;
    } else {
      EXPECT_EQ(kv.Fingerprint(), reference_fp) << "replica " << id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SafetySweep,
    ::testing::Combine(
        ::testing::Values(ProtocolKind::kHotStuff, ProtocolKind::kHotStuff2,
                          ProtocolKind::kHotStuff1Basic, ProtocolKind::kHotStuff1,
                          ProtocolKind::kHotStuff1Slotted),
        ::testing::Values(kActNone, kActCrash, kActSlow, kActTailFork,
                          kActEquivocate),
        ::testing::Values(1u, 2u, 3u)),
    ParamName);

// Large committees: the same invariants with quorum math above one 64-bit
// word (n = 96: quorum 65 is the first threshold past a word; n = 128
// matches the committee sizes of the HotStuff / Narwhal evaluations).
using LargeParam = std::tuple<uint32_t /*n*/, ProtocolKind, uint32_t /*fault*/>;

std::string LargeParamName(const ::testing::TestParamInfo<LargeParam>& info) {
  const auto [n, kind, fault] = info.param;
  std::string name = "n" + std::to_string(n);
  name += kind == ProtocolKind::kHotStuff ? "_HotStuff" : "_HS1";
  name += fault == kActNone ? "_NoFault" : "_Crash";
  return name;
}

class LargeCommitteeSweep : public ::testing::TestWithParam<LargeParam> {};

TEST_P(LargeCommitteeSweep, SafetyAndClientSafetyAboveOneWord) {
  const auto [n, kind, fault] = GetParam();
  ExperimentConfig cfg;
  cfg.protocol = kind;
  cfg.n = n;
  cfg.batch_size = 20;
  // With the full f crashed, a third of all views burn their 10ms timer
  // before an honest leader commits; the window must cover enough honest
  // stretches to show liveness.
  cfg.duration = fault == kActNone ? Millis(300) : Millis(600);
  cfg.warmup = fault == kActNone ? Millis(100) : Millis(200);
  cfg.num_clients = 200;
  cfg.view_timer = Millis(10);
  cfg.strategy = StrategySchedule::Always(fault);
  cfg.num_faulty = fault == kActNone ? 0 : (n - 1) / 3;  // full f crashes
  cfg.seed = 5;
  cfg.track_accepted = true;

  Experiment exp(cfg);
  const ExperimentResult res = exp.Run();

  // Theorem B.5 (safety) and Theorem B.8 (liveness) at >1-word quorums.
  EXPECT_TRUE(res.safety_ok);
  EXPECT_GT(res.accepted, 20u);
  // The speculative path really exercises the n-f client quorum (> 64
  // matching responses per acceptance for these committees).
  if (IsSpeculative(kind) && fault == kActNone) {
    EXPECT_GT(res.accepted_speculative, 0u);
  }

  // Corollary B.10 (client safety): accepted blocks are committed somewhere.
  // The in-flight tail must cover the worst honest-leader drought: up to f
  // consecutive crashed leaders burn ~f view timers before the commit that
  // confirms a late speculative acceptance.
  const SimTime tail =
      fault == kActNone ? Millis(150)
                            : Millis(100) + cfg.num_faulty * cfg.view_timer;
  const SimTime cutoff = cfg.warmup + cfg.duration - tail;
  for (const auto& rec : exp.clients().accepted_records()) {
    if (rec.time > cutoff) continue;
    bool committed = false;
    for (const auto& r : exp.replicas()) {
      if (r->ledger().IsCommitted(rec.block_hash)) {
        committed = true;
        break;
      }
    }
    EXPECT_TRUE(committed) << "block " << rec.block_hash.Short()
                           << " accepted but never committed";
    if (!committed) break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Wide, LargeCommitteeSweep,
    ::testing::Combine(::testing::Values(96u, 128u),
                       ::testing::Values(ProtocolKind::kHotStuff,
                                         ProtocolKind::kHotStuff1),
                       ::testing::Values(kActNone, kActCrash)),
    LargeParamName);

// Randomized delay jitter: message timing noise must never affect safety.
class JitterSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JitterSweep, SafetyUnderNetworkJitter) {
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kHotStuff1;
  cfg.n = 4;
  cfg.batch_size = 10;
  cfg.duration = Millis(400);
  cfg.warmup = Millis(100);
  cfg.num_clients = 80;
  cfg.seed = GetParam();
  cfg.inject_delay = Millis(GetParam() % 7);  // varying impairment
  cfg.num_impaired = GetParam() % 3;
  // Liveness needs the view timer above ShareTimer (3Δ) plus a delayed
  // proposal round trip; scale it with the injected delay.
  cfg.delta = Millis(1);
  cfg.view_timer = Millis(10) + 3 * cfg.inject_delay;
  const auto res = RunExperiment(cfg);
  EXPECT_TRUE(res.safety_ok);
  EXPECT_GT(res.accepted, 10u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JitterSweep,
                         ::testing::Range<uint64_t>(10, 20));

}  // namespace
}  // namespace hotstuff1
