// Figure 8 extension: scalability beyond the paper's n = 64 endpoint
// (n = 64..512; LAN, YCSB, batch 100), exercising the multi-word
// ReplicaSet quorum plumbing. n = 96 is the first committee whose n-f
// quorum (65) no longer fits a single 64-bit vote mask; n = 128 matches the
// committee sizes reported by the HotStuff and Narwhal/Tusk evaluations;
// n = 256/512 reach the blockchain-scale committees where the O(n)
// multisig-vector certificates dominate bandwidth (run with
// --cert-scheme=aggregate to see the O(1) alternative — fig_cert_size
// sweeps the comparison directly).
//
// Expected shape: throughput keeps decaying ~O(n) past the paper's range
// (steeper once vector certificates make proposals O(n)-sized, so the
// leader's egress is O(n^2) bytes per view); HotStuff-1 retains its latency
// lead because speculation still saves the same number of half-phases
// regardless of committee size.

#include "runtime/scenario.h"

namespace hotstuff1 {
namespace {

ScenarioSpec Fig8ScalabilityXl() {
  ScenarioSpec spec;
  spec.name = "fig8_scalability_xl";
  spec.title = "Figure 8 XL: Scalability past one vote word (LAN, YCSB, batch=100)";
  spec.description = "throughput and client latency at n = 64..512 (multi-word quorums)";
  spec.row_name = "n";

  spec.base.batch_size = 100;
  spec.base.duration = Millis(600);
  spec.base.warmup = Millis(200);
  spec.base.view_timer = Millis(10);
  spec.base.delta = Millis(1);
  spec.base.seed = 2024;

  for (uint32_t n : {64u, 96u, 128u, 256u, 512u}) {
    spec.rows.push_back(
        {std::to_string(n), [n](ExperimentConfig& c) {
           c.n = n;
           // Past n=128 the leader's per-view work outgrows the paper's LAN
           // timers: it verifies ~n-f shares and serializes n proposals that
           // each carry an O(n) vector certificate. Scale the synchrony
           // bound with n so the measurement stays timeout-free and shows
           // bandwidth/CPU decay, not view-change churn.
           if (n > 128) {
             c.delta = Millis(1) + Micros(16 * n);
             c.view_timer = Millis(10) + 4 * c.delta;
           }
         }});
  }
  for (ProtocolKind kind : {ProtocolKind::kHotStuff, ProtocolKind::kHotStuff2,
                            ProtocolKind::kHotStuff1}) {
    spec.cols.push_back(
        {ProtocolName(kind), [kind](ExperimentConfig& c) { c.protocol = kind; }});
  }
  spec.metrics = {ThroughputMetric(), AvgLatencyMetric()};
  // CI pays for the endpoints only (n = 64 and the n = 512 headline point);
  // a short window is enough to prove >1-word quorums form and commit, but
  // the n = 512 epoch-0 sync plus first commits need more room than the
  // default 120 ms smoke window (its view timer alone is ~43 ms).
  spec.smoke = [](ExperimentConfig& c) {
    c.duration = Millis(160);
    c.warmup = Millis(60);
    c.num_clients = 2 * c.batch_size;
  };
  // A clean run is not enough: every committee size, n = 512 included,
  // must commit client transactions.
  spec.judge = EveryPointAccepts;
  return spec;
}

HS1_REGISTER_SCENARIO(Fig8ScalabilityXl);

}  // namespace
}  // namespace hotstuff1
