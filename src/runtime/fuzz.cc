#include "runtime/fuzz.h"

#include <algorithm>

#include "common/random.h"

namespace hotstuff1 {

ExperimentConfig FuzzConfigFromSeed(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xf022edULL);
  ExperimentConfig cfg;

  constexpr ProtocolKind kProtocols[] = {
      ProtocolKind::kHotStuff, ProtocolKind::kHotStuff2,
      ProtocolKind::kHotStuff1Basic, ProtocolKind::kHotStuff1,
      ProtocolKind::kHotStuff1Slotted};
  cfg.protocol = kProtocols[rng.NextBounded(5)];

  // Small committees dominate (cheap points, most schedule diversity per
  // token of CPU); one draw in six crosses the 64-replica word boundary.
  constexpr uint32_t kSmall[] = {4, 7, 10, 16, 25, 33};
  constexpr uint32_t kWide[] = {65, 96, 128};
  cfg.n = rng.NextBounded(6) == 0 ? kWide[rng.NextBounded(3)]
                                  : kSmall[rng.NextBounded(6)];
  const uint32_t f = cfg.f();

  constexpr uint32_t kBatches[] = {10, 25, 50, 100};
  cfg.batch_size = kBatches[rng.NextBounded(4)];

  // The coalition's behaviour for the whole run: honest, crashed, slow
  // leaders (D6), tail-forking (D7) or the rollback campaign.
  constexpr uint32_t kFaults[] = {kActNone, kActCrash, kActSlow, kActTailFork,
                                  kActEquivocate};
  const uint32_t fault = kFaults[rng.NextBounded(5)];
  cfg.strategy = StrategySchedule::Always(fault);
  if (fault != kActNone) {
    // Coalition ("collusion") size 1..f; Byzantine coalitions collude by
    // construction (AdversarySpec::collude).
    cfg.num_faulty = 1 + static_cast<uint32_t>(rng.NextBounded(std::max(f, 1u)));
  }
  if (fault == kActEquivocate) {
    cfg.rollback_victims =
        1 + static_cast<uint32_t>(rng.NextBounded(std::max(f, 1u)));
  }

  constexpr double kBandwidths[] = {2000.0, 20000.0, 200000.0};
  cfg.bandwidth_bytes_per_us = kBandwidths[rng.NextBounded(3)];

  cfg.sim_jobs = 1u << rng.NextBounded(3);  // 1, 2 or 4 workers
  // The derived horizon, or a window narrower than any LAN hop.
  cfg.lookahead = rng.NextBool(0.5) ? LookaheadSpec{LookaheadMode::kAuto, 0}
                                    : LookaheadSpec{LookaheadMode::kWindow, 100};

  cfg.num_clients = 2 * cfg.batch_size;
  // Wide committees pay ~n^2 per view; keep their windows shorter so a fuzz
  // sweep's cost stays dominated by schedule diversity, not one big point.
  cfg.duration = cfg.n >= 64 ? Millis(100) : Millis(150);
  cfg.warmup = Millis(40);
  cfg.seed = seed;
  cfg.oracle_enabled = true;

  // Half the Byzantine coalitions additionally follow a bounded second
  // entry. Crash coalitions are excluded (a crashed replica has no
  // transport to script) and so is the equivocate primitive (it designates
  // rollback victims, which the other faults do not configure — the
  // equivocating tuples already cover it). The entry is bounded so
  // the auto-derived GST is finite and the liveness monitor arms; with the
  // coalition <= f the run must stay clean under BOTH oracles. Drawn last
  // so pre-existing seeds keep their (protocol, n, fault, ...) tuples.
  if (fault != kActNone && fault != kActCrash && rng.NextBool(0.5)) {
    StrategyEntry entry;
    entry.from_epoch = static_cast<uint32_t>(rng.NextBounded(2));
    entry.to_epoch =
        entry.from_epoch + 1 + static_cast<uint32_t>(rng.NextBounded(3));
    constexpr uint32_t kDrawable[] = {kActWithhold, kActDelay,
                                      kActTargetLeader};
    entry.actions = kDrawable[rng.NextBounded(3)];
    if (entry.actions & kActDelay) {
      // 0.2ms..2ms of extra one-way delay: disruptive at fuzz bandwidths
      // without swamping the short fuzz windows.
      entry.delay = 200 + static_cast<SimTime>(rng.NextBounded(1800));
    }
    cfg.strategy.entries.push_back(entry);
  }

  // A quarter of the configurations additionally reconfigure the committee:
  // shrink to a prefix committee 0..k-1 at epoch 2, half the time growing
  // back to the full set at epoch 5. Prefix committees keep the coalition
  // (ids 1..num_faulty) inside every epoch's fault bound as long as
  // k >= 3*num_faulty + 1. Rollback-attack tuples are excluded — victim
  // designation and equivocation splits are defined against the static
  // committee, and mixing the two would fuzz an adversary the paper does not
  // model. Drawn after the strategy so pre-existing seeds keep their tuples.
  if (fault != kActEquivocate && rng.NextBool(0.25)) {
    const uint32_t min_k = std::max(4u, 3 * cfg.num_faulty + 1);
    if (min_k < cfg.n) {
      const uint32_t k =
          min_k + static_cast<uint32_t>(rng.NextBounded(cfg.n - min_k));
      CommitteeStep full0, shrink, regrow;
      full0.from_epoch = 0;
      for (uint32_t i = 0; i < cfg.n; ++i) full0.committee.members.push_back(i);
      shrink.from_epoch = 2;
      for (uint32_t i = 0; i < k; ++i) shrink.committee.members.push_back(i);
      cfg.reconfig.steps = {full0, shrink};
      if (rng.NextBool(0.5)) {
        regrow.from_epoch = 5;
        regrow.committee = full0.committee;
        cfg.reconfig.steps.push_back(regrow);
      }
    }
  }
  return cfg;
}

OverThresholdCase OverThresholdCaseFromSeed(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x07e12ULL);
  constexpr ProtocolKind kProtocols[] = {
      ProtocolKind::kHotStuff, ProtocolKind::kHotStuff2,
      ProtocolKind::kHotStuff1Basic, ProtocolKind::kHotStuff1,
      ProtocolKind::kHotStuff1Slotted};

  OverThresholdCase c;
  ExperimentConfig& cfg = c.config;
  cfg.n = 7;  // f = 2: coalition 3..4 exceeds the fault bound
  const uint32_t f = cfg.f();
  cfg.batch_size = 10;
  cfg.num_clients = 2 * cfg.batch_size;
  cfg.duration = Millis(150);
  cfg.warmup = Millis(40);
  cfg.seed = seed + 1;
  cfg.oracle_enabled = true;

  if (seed < 10) {
    // Tuples 0..4: crash f+1..2f replicas. Tuples 5..9: the same coalition
    // stays up but withholds every outbound message past its own declared
    // GST. Either way the pacemaker's n-f Wish quorum is unreachable, no
    // view ever starts, and only the liveness oracle's end-of-run silence
    // check can see the stall (there are no view events to judge online).
    cfg.protocol = kProtocols[seed % 5];
    cfg.num_faulty = f + 1 + static_cast<uint32_t>(rng.NextBounded(f));
    if (seed < 5) {
      cfg.strategy = StrategySchedule::Always(kActCrash);
      c.label = std::string(ProtocolName(cfg.protocol)) + " crash>f";
    } else {
      cfg.strategy.entries.push_back({.actions = kActWithhold});
      cfg.strategy.declared_gst = Millis(30);
      c.label = std::string(ProtocolName(cfg.protocol)) + " withhold>f";
    }
    // The auto grace (>= 500ms) is sized for long runs; these windows end at
    // 190ms, so bound the silence threshold explicitly.
    cfg.liveness_grace = Millis(60);
    c.expect_liveness = true;
  } else {
    // Tuple 10: the injected equivocation-commit bug under a live rollback
    // attack — the safety oracle's commit-conflict lattice must fire while
    // the liveness oracle stays silent (commits keep flowing throughout).
    cfg.protocol = ProtocolKind::kHotStuff1;
    cfg.strategy = StrategySchedule::Always(kActEquivocate);
    cfg.num_faulty = f;
    cfg.rollback_victims = f;
    cfg.duration = Millis(400);
    cfg.warmup = Millis(100);
    cfg.num_clients = 80;
    cfg.seed = 3;
    cfg.test_break_safety = true;
    c.label = "HotStuff-1 break-safety";
    c.expect_safety = true;
  }
  return c;
}

}  // namespace hotstuff1
