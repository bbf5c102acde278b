// Figure 10 (e, f): tail-forking attack (D7). n = 32, batch 100; faulty
// leaders (0..f = 10) ignore the previous view's certificate and extend the
// certificate of view v-2, orphaning the previous proposal.
//
// Expected shape (paper): throughput drops and latency rises for HotStuff /
// HotStuff-2 / HotStuff-1 (each faulty leader wastes one block and forces
// client retries), while HotStuff-1 with slotting is nearly unaffected: the
// carry-block mechanism means a faulty leader can suppress at most the
// final slot of the previous view (§6.2).

#include "runtime/scenario.h"

namespace hotstuff1 {
namespace {

ScenarioSpec Fig10TailFork() {
  ScenarioSpec spec;
  spec.name = "fig10_tailfork";
  spec.title = "Figure 10(e,f): Tail-Forking (n=32)";
  spec.description = "throughput, latency and client resubmissions vs faulty leaders";
  spec.row_name = "faulty leaders";

  spec.base.n = 32;
  spec.base.batch_size = 100;
  spec.base.strategy = StrategySchedule::Always(kActTailFork);  // "0-:tailfork"
  spec.base.view_timer = Millis(10);
  spec.base.delta = Millis(1);
  spec.base.duration = Millis(1500);
  spec.base.warmup = Millis(300);
  spec.base.seed = 2024;
  // Safety valve for the long-running fault sweeps (see fig10_rollback).
  spec.base.event_cap = 50'000'000;

  for (uint32_t faulty : {0u, 1u, 4u, 7u, 10u}) {
    spec.rows.push_back({std::to_string(faulty),
                         [faulty](ExperimentConfig& c) { c.num_faulty = faulty; }});
  }
  spec.cols = PaperProtocolAxis();
  spec.metrics = {ThroughputMetric(), AvgLatencyMetric(),
                  CountMetric("resubmissions", [](const ExperimentResult& r) {
                    return static_cast<double>(r.resubmissions);
                  })};
  return spec;
}

HS1_REGISTER_SCENARIO(Fig10TailFork);

}  // namespace
}  // namespace hotstuff1
