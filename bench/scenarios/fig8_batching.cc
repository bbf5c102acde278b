// Figure 8 (c, d): throughput and client latency vs batch size
// (n = 32, LAN, YCSB, batch 100..10000).
//
// Expected shape (paper): throughput grows with batch size as per-view
// overheads amortize, then tapers as replicas become compute-bound around
// batch ~5000; latency grows with batch size throughout.

#include "runtime/scenario.h"

namespace hotstuff1 {
namespace {

ScenarioSpec Fig8Batching() {
  ScenarioSpec spec;
  spec.name = "fig8_batching";
  spec.title = "Figure 8(c,d): Batching (n=32, YCSB)";
  spec.description = "throughput and client latency vs batch size";
  spec.row_name = "batch";

  spec.base.n = 32;
  spec.base.duration = Millis(600);
  spec.base.warmup = Millis(300);
  spec.base.seed = 2024;

  for (uint32_t batch : {100u, 1000u, 2000u, 5000u, 10000u}) {
    spec.rows.push_back({std::to_string(batch), [batch](ExperimentConfig& c) {
                           c.batch_size = batch;
                           // Larger batches take longer per view: Δ must cover
                           // a proposal round trip including transfer and
                           // execution (partial synchrony demands Δ above the
                           // true delay bound), and the view timer sits above
                           // the ShareTimer fallback.
                           c.delta = Millis(2) + Millis(batch / 100);
                           c.view_timer = Millis(10) + 4 * c.delta;
                         }});
  }
  spec.cols = PaperProtocolAxis();
  spec.metrics = {ThroughputMetric(), AvgLatencyMetric()};
  return spec;
}

HS1_REGISTER_SCENARIO(Fig8Batching);

}  // namespace
}  // namespace hotstuff1
