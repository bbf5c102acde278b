// Figure 10 (g, h): rollback attacks. n = 32, batch 100; each faulty leader
// (0..f = 10) conceals+equivocates so that up to f correct replicas
// speculatively execute a block the winning branch abandons, forcing
// local-ledger rollbacks (§7.3).
//
// Expected shape (paper): throughput and latency of HotStuff-1 (without
// slotting) degrade with the number of faulty leaders; HotStuff-1 with
// slotting is minimally affected (a faulty leader can only force rollbacks
// of the preceding view's final slot).

#include "runtime/scenario.h"

namespace hotstuff1 {
namespace {

ScenarioSpec Fig10Rollback() {
  ScenarioSpec spec;
  spec.name = "fig10_rollback";
  spec.title = "Figure 10(g,h): Rollback Attacks (n=32)";
  spec.description = "throughput, latency and rollback events vs faulty leaders";
  spec.row_name = "faulty leaders";

  spec.base.n = 32;
  spec.base.batch_size = 100;
  spec.base.strategy = StrategySchedule::Always(kActEquivocate);  // "0-:equivocate"
  spec.base.rollback_victims = 10;  // up to f correct replicas per attack
  spec.base.view_timer = Millis(10);
  spec.base.delta = Millis(1);
  spec.base.duration = Millis(1500);
  spec.base.warmup = Millis(300);
  spec.base.seed = 2024;
  // Safety valve for the long-running fault sweeps: a full point processes
  // ~1M events, so 50M only trips on runaway storms (e.g. a timeout config
  // gone wrong). Truncation is reported via the event_cap_hit column and a
  // table warning, never silently.
  spec.base.event_cap = 50'000'000;

  for (uint32_t faulty : {0u, 1u, 4u, 7u, 10u}) {
    spec.rows.push_back({std::to_string(faulty),
                         [faulty](ExperimentConfig& c) { c.num_faulty = faulty; }});
  }
  spec.cols = PaperProtocolAxis();
  spec.metrics = {ThroughputMetric(), AvgLatencyMetric(),
                  CountMetric("rollback_events", [](const ExperimentResult& r) {
                    return static_cast<double>(r.rollback_events);
                  })};
  return spec;
}

HS1_REGISTER_SCENARIO(Fig10Rollback);

}  // namespace
}  // namespace hotstuff1
