// Figure 10 (a-d): leader-slowness phenomenon (D6). n = 32, batch 100; slow
// leaders (0..f = 10) delay proposing until late in their view; two timeout
// settings, 10ms and 100ms.
//
// Expected shape (paper): slow leaders degrade throughput and latency in all
// protocols except HotStuff-1 with slotting, where multiple slots per view
// realign incentives (slotted leaders propose promptly). The longer the
// timer, the worse the damage to the non-slotted protocols.

#include <algorithm>

#include "runtime/scenario.h"

namespace hotstuff1 {
namespace {

ScenarioSpec Fig10Slowness() {
  ScenarioSpec spec;
  spec.name = "fig10_slowness";
  spec.title = "Figure 10(a-d): Leader Slowness (n=32)";
  spec.description = "throughput and client latency vs slow leader count, two timers";
  spec.table_name = "timer";
  spec.row_name = "slow leaders";

  spec.base.n = 32;
  spec.base.batch_size = 100;
  spec.base.strategy = StrategySchedule::Always(kActSlow);  // "0-:slow"
  spec.base.delta = Millis(1);
  spec.base.seed = 2024;
  // Safety valve for the long-running fault sweeps (see fig10_rollback).
  spec.base.event_cap = 50'000'000;

  for (double timer_ms : {10.0, 100.0}) {
    spec.tables.push_back({timer_ms == 10.0 ? "10ms" : "100ms",
                           [timer_ms](ExperimentConfig& c) {
                             c.view_timer = Millis(timer_ms);
                             c.duration = std::max<SimTime>(Millis(1500),
                                                            25 * c.view_timer);
                             c.warmup =
                                 std::max<SimTime>(Millis(300), 4 * c.view_timer);
                           }});
  }
  for (uint32_t slow : {0u, 1u, 4u, 7u, 10u}) {
    spec.rows.push_back(
        {std::to_string(slow), [slow](ExperimentConfig& c) { c.num_faulty = slow; }});
  }
  spec.cols = PaperProtocolAxis();
  spec.metrics = {ThroughputMetric(), AvgLatencyMetric()};
  spec.smoke = [](ExperimentConfig& c) {
    c.duration = std::min<SimTime>(c.duration, 8 * c.view_timer);
    c.warmup = std::min<SimTime>(c.warmup, 2 * c.view_timer);
  };
  return spec;
}

HS1_REGISTER_SCENARIO(Fig10Slowness);

}  // namespace
}  // namespace hotstuff1
