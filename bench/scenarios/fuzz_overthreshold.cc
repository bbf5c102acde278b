// Over-threshold adversary fuzz: the positive-control counterpart of the
// clean `fuzz` sweep. Every row derives a tuple from runtime/fuzz.h's
// OverThresholdCaseFromSeed where the fault bound is exceeded (coalition
// f+1..2f crashing or withholding under each of the five protocol cores) or
// a protocol bug is injected (the test_break_safety equivocation commit) —
// and the scenario's judge asserts that EXACTLY the expected oracle
// family fires on every row. A sweep where an over-threshold row comes back
// clean fails: it would mean the oracles are vacuous exactly where the
// paper's theorems stop holding.

#include "runtime/fuzz.h"
#include "runtime/scenario.h"

namespace hotstuff1 {
namespace {

ScenarioSpec FuzzOverThreshold() {
  ScenarioSpec spec;
  spec.name = "fuzz_overthreshold";
  spec.title = "Over-threshold adversary fuzz (oracles expected to fire)";
  spec.description =
      "coalitions past f per protocol core; every row must trip exactly one oracle family";
  spec.row_name = "case";

  spec.base.oracle_enabled = true;
  for (uint64_t seed = 0; seed < kOverThresholdCases; ++seed) {
    const OverThresholdCase c = OverThresholdCaseFromSeed(seed);
    spec.rows.push_back({c.label, [seed](ExperimentConfig& cfg) {
                           cfg = OverThresholdCaseFromSeed(seed).config;
                         }});
  }
  spec.mode = RunMode::kSingle;
  spec.metrics = {CountMetric("liveness_violations", [](const ExperimentResult& r) {
                    return static_cast<double>(r.liveness_violations);
                  }),
                  CountMetric("oracle_violations", [](const ExperimentResult& r) {
                    return static_cast<double>(r.oracle_violations);
                  })};
  // The tuples are already CI-sized, and shrinking their windows would break
  // the gst/grace arithmetic the liveness expectations rest on.
  spec.smoke = [](ExperimentConfig&) {};

  spec.judge = JudgeEachPoint([](const SweepPoint& p, const ExperimentResult& r) {
    // Re-derive the expected family the same way the generator assigned it.
    if (p.config.test_break_safety) {
      return r.oracle_violations > 0 && r.liveness_violations == 0;
    }
    return r.liveness_violations > 0 && r.oracle_violations == 0 &&
           r.safety_ok;
  });
  return spec;
}

HS1_REGISTER_SCENARIO(FuzzOverThreshold);

}  // namespace
}  // namespace hotstuff1
