// Figure 9 (e, j): two-region geographical deployment. n = 31 replicas split
// between North Virginia and London (k in London), clients in North
// Virginia.
//
// Expected shape (paper): with k <= f or k >= n-f, a leader can form
// certificates within its own region; in between, every certificate needs a
// trans-atlantic vote, so throughput drops and latency rises. k <= f
// outperforms k >= n-f because most leaders are co-located with the
// clients. HotStuff-1 with slotting wins at the extremes.

#include "runtime/scenario.h"

namespace hotstuff1 {
namespace {

ScenarioSpec Fig9GeoRegions() {
  ScenarioSpec spec;
  spec.name = "fig9_georegions";
  spec.title = "Figure 9(e,j): Geographical Deployment (n=31)";
  spec.description = "two regions, k replicas in London, clients in North Virginia";
  spec.row_name = "k(London)";

  spec.base.n = 31;
  spec.base.batch_size = 100;
  spec.base.client_region = 0;  // North Virginia
  spec.base.delta = Millis(50);
  spec.base.view_timer = Millis(400);
  spec.base.seed = 2024;

  for (uint32_t k : {0u, 10u, 11u, 20u, 21u, 31u}) {
    spec.rows.push_back({std::to_string(k), [k](ExperimentConfig& c) {
      c.topology = sim::Topology::TwoRegion(c.n, k);
      // k <= f and k >= n-f run at intra-region speed (short window is
      // plenty); the trans-atlantic regime needs enough ~76ms views.
      const bool slow_regime = k > 10 && k < 21;
      c.duration = slow_regime ? Seconds(6) : Millis(1500);
      c.warmup = slow_regime ? Seconds(1.5) : Millis(400);
    }});
  }
  spec.cols = PaperProtocolAxis();
  spec.metrics = {ThroughputMetric(), AvgLatencyMetric()};
  spec.smoke = [](ExperimentConfig& c) {
    c.duration = Millis(800);
    c.warmup = Millis(200);
  };
  return spec;
}

HS1_REGISTER_SCENARIO(Fig9GeoRegions);

}  // namespace
}  // namespace hotstuff1
