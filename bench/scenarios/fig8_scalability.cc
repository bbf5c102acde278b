// Figure 8 (a, b): throughput and client latency vs number of replicas
// (n = 4..64, LAN, YCSB, batch 100).
//
// Expected shape (paper): all streamlined protocols share throughput, which
// decays ~O(n); HotStuff-1 (with and without slotting) has the lowest
// latency - roughly 40% below HotStuff and 25% below HotStuff-2.

#include "runtime/scenario.h"

namespace hotstuff1 {
namespace {

ScenarioSpec Fig8Scalability() {
  ScenarioSpec spec;
  spec.name = "fig8_scalability";
  spec.title = "Figure 8(a,b): Scalability (LAN, YCSB, batch=100)";
  spec.description = "throughput and client latency vs number of replicas";
  spec.row_name = "n";

  spec.base.batch_size = 100;
  spec.base.duration = Millis(800);
  spec.base.warmup = Millis(200);
  spec.base.view_timer = Millis(10);
  spec.base.delta = Millis(1);
  spec.base.seed = 2024;

  for (uint32_t n : {4u, 16u, 32u, 64u}) {
    spec.rows.push_back(
        {std::to_string(n), [n](ExperimentConfig& c) { c.n = n; }});
  }
  spec.cols = PaperProtocolAxis();
  spec.metrics = {ThroughputMetric(), AvgLatencyMetric()};
  return spec;
}

HS1_REGISTER_SCENARIO(Fig8Scalability);

}  // namespace
}  // namespace hotstuff1
