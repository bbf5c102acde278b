// Shared determinism assertions: every ExperimentResult field must agree
// between two runs of the same configuration. Lives in one place so that a
// field added to ExperimentResult is covered by every determinism test
// (parallel_sim_test, determinism_stress_test, ...) at once.

#ifndef HOTSTUFF1_TESTS_RESULT_EQUALITY_H_
#define HOTSTUFF1_TESTS_RESULT_EQUALITY_H_

#include <gtest/gtest.h>

#include "runtime/experiment.h"

namespace hotstuff1 {

inline void ExpectSameResult(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.protocol, b.protocol);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.accepted_speculative, b.accepted_speculative);
  EXPECT_EQ(a.resubmissions, b.resubmissions);
  EXPECT_DOUBLE_EQ(a.throughput_tps, b.throughput_tps);
  EXPECT_DOUBLE_EQ(a.avg_latency_ms, b.avg_latency_ms);
  EXPECT_DOUBLE_EQ(a.p50_latency_ms, b.p50_latency_ms);
  EXPECT_DOUBLE_EQ(a.p99_latency_ms, b.p99_latency_ms);
  EXPECT_DOUBLE_EQ(a.p999_latency_ms, b.p999_latency_ms);
  EXPECT_EQ(a.backlog, b.backlog);
  EXPECT_EQ(a.committed_blocks, b.committed_blocks);
  EXPECT_EQ(a.committed_txns, b.committed_txns);
  EXPECT_EQ(a.views, b.views);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.rollback_events, b.rollback_events);
  EXPECT_EQ(a.blocks_rolled_back, b.blocks_rolled_back);
  EXPECT_EQ(a.rejects, b.rejects);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.committee_changes, b.committee_changes);
  EXPECT_EQ(a.final_committee_n, b.final_committee_n);
  EXPECT_EQ(a.safety_ok, b.safety_ok);
  EXPECT_EQ(a.event_cap_hit, b.event_cap_hit);
  EXPECT_EQ(a.oracle_violations, b.oracle_violations);
  EXPECT_EQ(a.liveness_violations, b.liveness_violations);
  // Diagnostics embed event counters and virtual timestamps, so equality
  // here proves the oracles observed the *same* serial event order under
  // every executor configuration, not just the same verdict.
  EXPECT_EQ(a.oracle_first_violation, b.oracle_first_violation);
  EXPECT_EQ(a.liveness_first_violation, b.liveness_first_violation);
}

/// Reruns `cfg` on the 4-worker parallel executor under the derived horizon
/// and under a narrower explicit window, and expects each run to equal
/// `serial`, the sim_jobs = 1 run of the same configuration. Fails if the
/// executor did not attach, so a comparison never quietly pits the serial
/// loop against itself.
inline void ExpectWindowedRunsMatchSerial(ExperimentConfig cfg,
                                          const ExperimentResult& serial) {
  cfg.sim_jobs = 4;
  for (const LookaheadSpec lookahead : {LookaheadSpec{LookaheadMode::kAuto, 0},
                                        LookaheadSpec{LookaheadMode::kWindow, 100}}) {
    cfg.lookahead = lookahead;
    SCOPED_TRACE("sim_jobs=4 lookahead=" + FormatLookahead(lookahead));
    Experiment exp(cfg);
    const ExperimentResult windowed = exp.Run();
    EXPECT_EQ(exp.simulator().jobs(), 4) << "the run did not attach the executor";
    ExpectSameResult(windowed, serial);
  }
}

}  // namespace hotstuff1

#endif  // HOTSTUFF1_TESTS_RESULT_EQUALITY_H_
