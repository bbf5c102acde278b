// Figure 9 (a-d, f-i): impact of injected message delays. n = 31 (f = 10);
// delays delta in {1, 5, 50, 500} ms injected on traffic to/from k impacted
// replicas, k in {0, 10, 11, 20, 21, 31}.
//
// Expected shape (paper): the largest cliff appears between k = f (10) and
// k = f+1 (11), where every certificate needs an impacted signer; between
// k = n-f-1 (20) and k = n-f (21), HotStuff/HotStuff-2 client latency jumps
// again (clients can get at most f fast responses) while HotStuff-1's n-f
// quorum was already dominated by slow replicas - it only rises moderately.

#include <algorithm>
#include <cstdio>

#include "runtime/scenario.h"

namespace hotstuff1 {
namespace {

ScenarioSpec Fig9Delay() {
  ScenarioSpec spec;
  spec.name = "fig9_delay";
  spec.title = "Figure 9(a-d,f-i): Injected Message Delays (n=31)";
  spec.description = "throughput and client latency vs impacted replica count";
  spec.table_name = "delay";
  spec.row_name = "k";

  spec.base.n = 31;
  spec.base.batch_size = 100;
  spec.base.seed = 2024;

  for (double delay_ms : {1.0, 5.0, 50.0, 500.0}) {
    char label[16];
    std::snprintf(label, sizeof(label), "%gms", delay_ms);
    spec.tables.push_back({label, [delay_ms](ExperimentConfig& c) {
                             c.inject_delay = Millis(delay_ms);
                           }});
  }
  for (uint32_t k : {0u, 10u, 11u, 20u, 21u, 31u}) {
    spec.rows.push_back({std::to_string(k), [k](ExperimentConfig& c) {
      c.num_impaired = k;
      // The view timer must cover a delayed proposal round trip once
      // impacted replicas sit inside every quorum.
      c.delta = Millis(1) + c.inject_delay;
      c.view_timer = Millis(10) + 4 * c.inject_delay;
      // With k <= f the quorum excludes impacted replicas and views run at
      // network speed, so a short window already covers thousands of views;
      // only the slow regime (k > f) needs a window scaled to the delayed
      // round trip.
      const bool slow_regime = k > 10;
      c.duration = slow_regime
                       ? std::max<SimTime>(Millis(1200),
                                           14 * (2 * c.inject_delay + Millis(20)))
                       : Millis(1200);
      c.warmup = slow_regime
                     ? std::max<SimTime>(Millis(300),
                                         3 * (2 * c.inject_delay + Millis(20)))
                     : Millis(300);
    }});
  }
  spec.cols = PaperProtocolAxis();
  spec.metrics = {ThroughputMetric(), AvgLatencyMetric()};
  // Keep a couple of delayed round trips in the smoke window even at the
  // 500ms table point.
  spec.smoke = [](ExperimentConfig& c) {
    const SimTime round_trip = 2 * c.inject_delay + Millis(20);
    c.duration = std::min<SimTime>(c.duration, std::max(Millis(120), 4 * round_trip));
    c.warmup = std::min<SimTime>(c.warmup, round_trip);
  };
  return spec;
}

HS1_REGISTER_SCENARIO(Fig9Delay);

}  // namespace
}  // namespace hotstuff1
