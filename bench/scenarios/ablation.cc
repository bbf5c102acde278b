// Ablations of the design choices DESIGN.md calls out, flattened into one
// sweep (one row per configuration):
//  1. Speculation on/off - quantifies the two-hop latency saving of early
//     finality confirmations (the paper's core claim).
//  2. Basic vs streamlined HotStuff-1 - the 2x throughput of streamlining.
//  3. Fixed vs adaptive slot counts under slow leaders - why "adaptive".
//  4. Trusted-previous-leader fast path on/off (§6.3).

#include "runtime/scenario.h"

namespace hotstuff1 {
namespace {

ScenarioSpec Ablation() {
  ScenarioSpec spec;
  spec.name = "ablation";
  spec.title = "Ablations (n=16)";
  spec.description = "speculation, streamlining, slot budget, trusted-leader fast path";
  spec.row_name = "config";

  spec.base.n = 16;
  spec.base.batch_size = 100;
  spec.base.duration = Millis(1200);
  spec.base.warmup = Millis(300);
  spec.base.view_timer = Millis(10);
  spec.base.delta = Millis(1);
  spec.base.seed = 99;

  // 1. Speculation on/off (streamlined HotStuff-1).
  for (bool on : {true, false}) {
    spec.rows.push_back({std::string("speculation ") + (on ? "ON" : "OFF"),
                         [on](ExperimentConfig& c) {
                           c.protocol = ProtocolKind::kHotStuff1;
                           c.speculation_enabled = on;
                         }});
  }
  // 2. Basic vs streamlined.
  for (ProtocolKind kind :
       {ProtocolKind::kHotStuff1Basic, ProtocolKind::kHotStuff1}) {
    spec.rows.push_back(
        {ProtocolName(kind), [kind](ExperimentConfig& c) { c.protocol = kind; }});
  }
  // 3. Slot budget under f slow leaders (slotted, timer 20ms).
  for (uint32_t max_slots : {1u, 2u, 4u, 0u}) {  // 0 = adaptive
    const std::string label =
        "slots=" + (max_slots == 0 ? "adaptive" : std::to_string(max_slots)) +
        " (f slow leaders)";
    spec.rows.push_back({label, [max_slots](ExperimentConfig& c) {
                           c.protocol = ProtocolKind::kHotStuff1Slotted;
                           c.max_slots = max_slots;
                           c.view_timer = Millis(20);
                           c.strategy = StrategySchedule::Always(kActSlow);
                           c.num_faulty = 5;  // f = 5 at n = 16
                         }});
  }
  // 4. Trusted-previous-leader fast path on/off (slotted).
  for (bool on : {true, false}) {
    spec.rows.push_back({std::string("trusted-leader fast path ") + (on ? "ON" : "OFF"),
                         [on](ExperimentConfig& c) {
                           c.protocol = ProtocolKind::kHotStuff1Slotted;
                           c.trusted_leader_enabled = on;
                           c.delta = Millis(2);  // make the 3-delta wait visible
                         }});
  }

  spec.cols = {{"value", nullptr}};
  spec.metrics = {ThroughputMetric(), AvgLatencyMetric(), P99LatencyMetric(),
                  CountMetric("views", [](const ExperimentResult& r) {
                    return static_cast<double>(r.views);
                  })};
  return spec;
}

HS1_REGISTER_SCENARIO(Ablation);

}  // namespace
}  // namespace hotstuff1
