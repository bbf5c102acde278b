// Randomized determinism stress harness: each seed derives an arbitrary
// ExperimentConfig (committee size — including multi-word quorums past
// n = 64 — protocol, batch, faults, bandwidth, authenticator scheme,
// client-group shard counts, open-loop arrival processes, epoch-based
// committee reconfiguration) and the run is repeated on the 4-worker
// executor under the derived and a narrower explicit lookahead window.
// Every deterministic result field must be identical, so parallel-executor
// regressions surface from plain `ctest` instead of hand-written
// reproduction scripts; a failure names the seed that rebuilds its exact
// configuration.
//
// Every config runs with the invariant oracle armed: the oracle's shared
// bookkeeping is itself SyncShared-ordered, so its verdict (zero violations
// here) and its event stream must be identical under every executor shape —
// this is the oracle-under-parallelism regression gate.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "runtime/experiment.h"
#include "tests/result_equality.h"

namespace hotstuff1 {
namespace {

/// Derives one arbitrary-but-reproducible configuration from `seed`. Every
/// draw goes through the deterministic Rng, so a failing seed IS the repro.
ExperimentConfig ConfigFromSeed(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  ExperimentConfig cfg;

  constexpr ProtocolKind kProtocols[] = {
      ProtocolKind::kHotStuff, ProtocolKind::kHotStuff2,
      ProtocolKind::kHotStuff1Basic, ProtocolKind::kHotStuff1,
      ProtocolKind::kHotStuff1Slotted};
  cfg.protocol = kProtocols[rng.NextBounded(5)];

  // Committee sizes straddle the one-word boundary the ReplicaSet removed.
  constexpr uint32_t kSizes[] = {4, 7, 16, 33, 65, 96};
  cfg.n = kSizes[rng.NextBounded(6)];

  constexpr uint32_t kBatches[] = {10, 50, 100};
  cfg.batch_size = kBatches[rng.NextBounded(3)];

  constexpr uint32_t kFaults[] = {kActNone, kActCrash, kActTailFork};
  cfg.strategy = StrategySchedule::Always(kFaults[rng.NextBounded(3)]);
  if (!cfg.strategy.empty()) {
    const uint32_t f = (cfg.n - 1) / 3;
    cfg.num_faulty = 1 + static_cast<uint32_t>(rng.NextBounded(std::max(f, 1u)));
  }

  cfg.bandwidth_bytes_per_us = rng.NextBool(0.5) ? 2000.0 : 200000.0;

  // Authenticator wire scheme: changes per-message byte sizes, hence
  // serialization times and the whole event schedule — a fresh determinism
  // surface the fixed-size era never exercised.
  constexpr CertScheme kSchemes[] = {CertScheme::kMultisigVector,
                                     CertScheme::kAggregate,
                                     CertScheme::kThreshold};
  cfg.cert_scheme = kSchemes[rng.NextBounded(3)];

  // Client-pool shape: shard count and traffic model. Closed loop is drawn
  // with double weight (it is the paper-fidelity default and exercises the
  // acceptance-triggered resubmission path the open loop lacks).
  cfg.client_groups = 1u << rng.NextBounded(4);  // 1, 2, 4, 8
  constexpr ArrivalKind kArrivals[] = {
      ArrivalKind::kClosedLoop, ArrivalKind::kClosedLoop, ArrivalKind::kPoisson,
      ArrivalKind::kBursty,     ArrivalKind::kDiurnal,    ArrivalKind::kFlashCrowd};
  cfg.arrival.kind = kArrivals[rng.NextBounded(6)];
  if (cfg.arrival.kind != ArrivalKind::kClosedLoop) {
    cfg.arrival.offered_load_tps =
        20'000.0 * static_cast<double>(1 + rng.NextBounded(4));
    // Compress the processes' time structure into the 160ms run window so
    // diurnal modulation and the flash ramp actually happen.
    cfg.arrival.diurnal_period = Millis(60);
    cfg.arrival.flash_start = Millis(60);
    cfg.arrival.flash_rise = Millis(10);
    cfg.arrival.flash_decay = Millis(30);
  }

  cfg.num_clients = 2 * cfg.batch_size;
  cfg.duration = Millis(120);
  cfg.warmup = Millis(40);
  cfg.seed = seed;
  cfg.oracle_enabled = true;

  // A third of the configs reconfigure the committee mid-run: shrink to a
  // prefix committee 0..k-1 at epoch 1, then regrow at epoch 3. Prefix
  // committees keep the faulty coalition (ids 1..num_faulty) inside every
  // epoch's fault bound whenever k >= 3*num_faulty + 1. Drawn last so the
  // earlier seeds' (protocol, n, fault, ...) tuples are unchanged.
  if (rng.NextBounded(3) == 0) {
    const uint32_t min_k = std::max(4u, 3 * cfg.num_faulty + 1);
    if (min_k < cfg.n) {
      const uint32_t k =
          min_k + static_cast<uint32_t>(rng.NextBounded(cfg.n - min_k));
      CommitteeStep full0, shrink, regrow;
      full0.from_epoch = 0;
      for (uint32_t i = 0; i < cfg.n; ++i) full0.committee.members.push_back(i);
      shrink.from_epoch = 1;
      for (uint32_t i = 0; i < k; ++i) shrink.committee.members.push_back(i);
      regrow.from_epoch = 3;
      regrow.committee = full0.committee;
      cfg.reconfig.steps = {full0, shrink, regrow};
    }
  }
  return cfg;
}

class DeterminismStress : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeterminismStress, RandomConfigIsByteIdenticalAcrossExecutors) {
  ExperimentConfig cfg = ConfigFromSeed(GetParam());
  cfg.sim_jobs = 1;
  const ExperimentResult serial = RunExperiment(cfg);
  EXPECT_TRUE(serial.safety_ok) << "seed " << GetParam();
  EXPECT_EQ(serial.oracle_violations, 0u)
      << "seed " << GetParam() << ": " << serial.oracle_first_violation;

  SCOPED_TRACE(::testing::Message()
               << "seed=" << GetParam() << " n=" << cfg.n << " protocol="
               << serial.protocol << " batch=" << cfg.batch_size
               << " strategy=" << FormatStrategySchedule(cfg.strategy));
  ExpectWindowedRunsMatchSerial(cfg, serial);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismStress,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace hotstuff1
