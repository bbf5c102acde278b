// Liveness stall scenario: a coalition withholds every outbound message from
// epoch 1 onwards while declaring GST at 30ms. Within the fault bound
// (coalition <= f) the pacemaker's n-f Wish quorum survives and the run must
// stay clean under both oracles; one replica past the bound starves the
// quorum, views stop, and the liveness oracle's end-of-run silence check must
// flag the broken Thm B.8 promise — with the same reproducible
// (config, seed, event#, t) diagnostics as a safety violation.
//
// This scenario *expects* violations on its over-threshold rows, so it
// carries its own judge: the exit code asserts that exactly the rows past
// the bound fire the liveness oracle (and nothing ever fires the safety
// oracle), instead of the default any-violation-fails rule.

#include "runtime/scenario.h"

namespace hotstuff1 {
namespace {

ScenarioSpec FigLiveness() {
  ScenarioSpec spec;
  spec.name = "fig_liveness";
  spec.title = "Liveness under withholding coalitions (n=7, GST=30ms)";
  spec.description =
      "coalition sizes across the f bound; rows past f must trip the liveness oracle";
  spec.row_name = "coalition";

  spec.base.n = 7;  // f = 2
  spec.base.batch_size = 10;
  spec.base.num_clients = 20;
  spec.base.view_timer = Millis(10);
  spec.base.duration = Millis(150);
  spec.base.warmup = Millis(40);
  spec.base.seed = 11;
  spec.base.oracle_enabled = true;
  // Withhold from epoch 1 (= 30ms at the auto epoch length (f+1)*tau) and
  // never stop; the adversary *declares* stabilization at exactly that
  // point. Every row shares the schedule — only the coalition size decides
  // whether the n-f Wish quorum survives it.
  spec.base.strategy.entries.push_back({.from_epoch = 1, .actions = kActWithhold});
  spec.base.strategy.declared_gst = Millis(30);
  // The auto silence grace (>= 500ms) is sized for long runs; this window
  // ends at 190ms, so bound it explicitly.
  spec.base.liveness_grace = Millis(60);

  for (uint32_t coalition : {1u, 2u, 3u, 4u}) {
    spec.rows.push_back({std::to_string(coalition), [coalition](ExperimentConfig& c) {
                           c.num_faulty = coalition;
                         }});
  }
  spec.cols = PaperProtocolAxis();
  spec.mode = RunMode::kSingle;
  spec.metrics = {ThroughputMetric(),
                  CountMetric("views", [](const ExperimentResult& r) {
                    return static_cast<double>(r.views);
                  }),
                  CountMetric("liveness_violations", [](const ExperimentResult& r) {
                    return static_cast<double>(r.liveness_violations);
                  })};
  // The windows are already CI-sized and the gst/grace arithmetic depends on
  // them; the default smoke shrink would silence the over-threshold rows.
  spec.smoke = [](ExperimentConfig&) {};

  spec.judge = JudgeEachPoint([](const SweepPoint& p, const ExperimentResult& r) {
    const uint32_t f = p.config.f();
    if (!r.safety_ok || r.oracle_violations != 0) return false;
    return p.config.num_faulty > f ? r.liveness_violations > 0
                                   : r.liveness_violations == 0;
  });
  return spec;
}

HS1_REGISTER_SCENARIO(FigLiveness);

}  // namespace
}  // namespace hotstuff1
