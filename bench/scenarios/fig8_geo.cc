// Figure 8 (e-h): geo-scale deployment, n = 32 replicas uniformly spread
// over 2..5 regions (North Virginia, Hong Kong, London, Sao Paulo, Zurich),
// clients in North Virginia, YCSB and TPC-C.
//
// Expected shape (paper): inter-regional RTTs dominate; throughput drops by
// up to ~59% and latency grows by up to ~159% as regions increase; both
// workloads show the same trend; HotStuff-1 keeps the lowest latency at
// unchanged throughput.

#include "runtime/scenario.h"

namespace hotstuff1 {
namespace {

ScenarioSpec Fig8Geo() {
  ScenarioSpec spec;
  spec.name = "fig8_geo";
  spec.title = "Figure 8(e-h): Geo-Scale (n=32)";
  spec.description = "throughput and client latency vs region count, YCSB and TPC-C";
  spec.table_name = "workload";
  spec.row_name = "regions";

  spec.base.n = 32;
  spec.base.batch_size = 100;
  spec.base.client_region = sim::kNorthVirginia;
  spec.base.duration = Seconds(12);
  spec.base.warmup = Seconds(2);
  spec.base.view_timer = Millis(1200);
  spec.base.delta = Millis(160);
  spec.base.seed = 2024;

  spec.tables = {
      {"ycsb", [](ExperimentConfig& c) { c.workload = WorkloadKind::kYcsb; }},
      {"tpcc", [](ExperimentConfig& c) { c.workload = WorkloadKind::kTpcc; }}};
  for (uint32_t regions : {2u, 3u, 4u, 5u}) {
    spec.rows.push_back({std::to_string(regions),
                         [regions](ExperimentConfig& c) { c.regions = regions; }});
  }
  spec.cols = PaperProtocolAxis();
  spec.metrics = {ThroughputMetric(), AvgLatencyMetric()};
  // Geo view timers are ~1.2s, so the smoke window still has to cover a few
  // complete views to exercise the pipeline at all.
  spec.smoke = [](ExperimentConfig& c) {
    c.duration = Seconds(5);
    c.warmup = Seconds(1.5);
  };
  return spec;
}

HS1_REGISTER_SCENARIO(Fig8Geo);

}  // namespace
}  // namespace hotstuff1
