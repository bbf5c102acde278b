// Committee reconfiguration scenario: churn profiles (shrink, grow, rotation,
// churn under a healing partition) across the paper's protocol column, all on
// a fixed 16-node allocation. Every row must keep committing through its
// membership changes with both oracles silent, and the whole grid is
// byte-identical across --jobs / --sim-jobs / --lookahead — CI diffs the CSV
// to pin that down.

#include "common/logging.h"
#include "consensus/committee.h"
#include "runtime/adversary.h"
#include "runtime/scenario.h"

namespace hotstuff1 {
namespace {

void SetReconfig(ExperimentConfig& c, const char* schedule) {
  std::string error;
  const bool ok = ParseCommitteeSchedule(schedule, &c.reconfig, &error);
  HS1_CHECK(ok) << "fig_reconfig schedule '" << schedule << "': " << error;
}

ScenarioSpec FigReconfig() {
  ScenarioSpec spec;
  spec.name = "fig_reconfig";
  spec.title = "Epoch-based committee reconfiguration (n=16 allocation)";
  spec.description =
      "churn profiles x protocol; every row must commit through its membership "
      "changes with both oracles silent";
  spec.row_name = "churn";

  spec.base.n = 16;  // f = 5 -> 6 views per epoch
  spec.base.batch_size = 10;
  spec.base.num_clients = 20;
  spec.base.view_timer = Millis(10);
  spec.base.duration = Millis(150);
  spec.base.warmup = Millis(40);
  spec.base.seed = 13;
  spec.base.oracle_enabled = true;

  spec.rows = {
      {"static", [](ExperimentConfig&) {}},
      // Churn epochs sit low (views 6 and 12 of the f+1=6-view epochs): the
      // slotted protocol advances views on the 10ms timer, so only the first
      // ~15 views of the 150ms window exist for every protocol column.
      {"shrink", [](ExperimentConfig& c) { SetReconfig(c, "0:0-15;2:0-11"); }},
      {"grow", [](ExperimentConfig& c) { SetReconfig(c, "0:0-11;2:0-15"); }},
      {"rotate",
       [](ExperimentConfig& c) { SetReconfig(c, "0:0-15;1:4-15;2:0-11"); }},
      {"partition-heal",
       [](ExperimentConfig& c) {
         // The committee shrinks while a 8|8 partition splits the allocation
         // for one strategy epoch (20ms..40ms), then heals. Bounded entry ->
         // finite derived GST, so the liveness monitor arms.
         SetReconfig(c, "0:0-15;2:0-11");
         std::string error;
         const bool ok = ParseStrategySchedule(
             "1:partition=0-7|8-15;epoch=20000", &c.strategy, &error);
         HS1_CHECK(ok) << error;
         c.liveness_grace = Millis(60);
       }},
  };
  spec.cols = PaperProtocolAxis();
  spec.mode = RunMode::kSingle;
  spec.metrics = {ThroughputMetric(),
                  CountMetric("commits",
                              [](const ExperimentResult& r) {
                                return static_cast<double>(r.committed_txns);
                              }),
                  CountMetric("committee_changes",
                              [](const ExperimentResult& r) {
                                return static_cast<double>(r.committee_changes);
                              }),
                  CountMetric("final_n",
                              [](const ExperimentResult& r) {
                                return static_cast<double>(r.final_committee_n);
                              })};
  // The windows are already CI-sized and the epoch arithmetic depends on
  // them; the default smoke shrink would land every run before epoch 1.
  spec.smoke = [](ExperimentConfig&) {};

  spec.judge = JudgeEachPoint([](const SweepPoint& p, const ExperimentResult& r) {
    if (!r.safety_ok || r.oracle_violations != 0 || r.liveness_violations != 0) {
      return false;
    }
    if (r.committed_txns == 0) return false;
    // Rows with a multi-step schedule must actually reach their churn.
    if (p.config.reconfig.steps.size() > 1 && r.committee_changes == 0) {
      return false;
    }
    return true;
  });
  return spec;
}

HS1_REGISTER_SCENARIO(FigReconfig);

}  // namespace
}  // namespace hotstuff1
