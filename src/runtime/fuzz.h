// Seed-derived randomized experiment configurations for the adversary fuzz
// harness. One helper shared by the `fuzz` registry scenario and
// tests/fuzz_invariant_test.cc so "a failing seed IS the repro": the tuple
// (protocol x n x fault x collusion size x batch x bandwidth x lookahead x
// sim_jobs) is a pure function of the seed, every draw goes through the
// deterministic Rng, and the invariant oracle is armed on every config.

#ifndef HOTSTUFF1_RUNTIME_FUZZ_H_
#define HOTSTUFF1_RUNTIME_FUZZ_H_

#include <string>

#include "runtime/experiment.h"

namespace hotstuff1 {

/// Derives one arbitrary-but-reproducible oracle-enabled configuration from
/// `seed`. Committee sizes span 4..128 (multi-word quorums included, weighted
/// toward small committees so a fuzz sweep stays cheap); the coalition is
/// honest, crashed, slow, tail-forking or equivocating for the whole run
/// ("0-:<action>"), with a randomized size <= f and randomized rollback
/// victim count; the executor axes (sim_jobs, lookahead) are drawn too, so
/// the oracle's shard-safe bookkeeping is exercised under every scheduler.
/// Byzantine coalitions additionally draw a bounded second schedule entry
/// (withhold / delay / target-leader) on half the seeds — within
/// the f threshold every such run must still be safety- AND liveness-clean.
ExperimentConfig FuzzConfigFromSeed(uint64_t seed);

/// One deterministic over-threshold adversary tuple: a configuration where
/// the fault bound is exceeded (coalition > f) or a protocol bug is injected,
/// so an oracle is *expected* to fire — the positive-control counterpart of
/// the clean fuzz sweep, generalizing the test_break_safety mutation test
/// across all five protocol cores.
struct OverThresholdCase {
  ExperimentConfig config;
  /// Exactly one of these is set: the oracle family that must report a
  /// violation (the other family must stay silent).
  bool expect_safety = false;
  bool expect_liveness = false;
  std::string label;  // row label, e.g. "HotStuff-1 crash f+1"
};

/// Number of distinct over-threshold tuples (valid seeds are 0..count-1).
/// Tuples 0..4 crash a coalition of f+1..2f under each protocol and 5..9
/// script an over-threshold withhold schedule (both starve the pacemaker's
/// n-f Wish quorum, so the liveness oracle must flag the stall); tuple 10
/// injects the equivocation-commit bug (test_break_safety), which the
/// safety oracle must catch while the liveness oracle stays silent.
inline constexpr uint64_t kOverThresholdCases = 11;

OverThresholdCase OverThresholdCaseFromSeed(uint64_t seed);

}  // namespace hotstuff1

#endif  // HOTSTUFF1_RUNTIME_FUZZ_H_
