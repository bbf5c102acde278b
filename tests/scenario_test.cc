// Scenario engine and sweep runner: registry round-trips, deterministic
// expansion, worker-count-independent merged output, the judges that decide
// a scenario's exit code, and the event-cap diagnostic plumbing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <tuple>

#include "runtime/report.h"
#include "runtime/scenario.h"
#include "runtime/sweep_runner.h"
#include "sim/simulator.h"

namespace hotstuff1 {
namespace {

// A fast sweep: 2x2x2 points of a tiny cluster, milliseconds of virtual time.
ScenarioSpec TinySpec() {
  ScenarioSpec spec;
  spec.name = "tiny";
  spec.title = "Tiny";
  spec.row_name = "n";
  spec.base.batch_size = 10;
  spec.base.num_clients = 20;
  spec.base.duration = Millis(80);
  spec.base.warmup = Millis(20);
  spec.base.view_timer = Millis(10);
  spec.base.delta = Millis(1);
  spec.mode = RunMode::kSingle;
  for (uint32_t n : {4u, 7u}) {
    spec.rows.push_back({std::to_string(n), [n](ExperimentConfig& c) { c.n = n; }});
  }
  for (ProtocolKind kind : {ProtocolKind::kHotStuff, ProtocolKind::kHotStuff1}) {
    spec.cols.push_back(
        {ProtocolName(kind), [kind](ExperimentConfig& c) { c.protocol = kind; }});
  }
  spec.seeds = {1, 2};
  spec.metrics = {ThroughputMetric(), AvgLatencyMetric()};
  return spec;
}

TEST(ScenarioExpansionTest, CrossProductInDeterministicOrder) {
  const ScenarioSpec spec = TinySpec();
  const std::vector<SweepPoint> points = ExpandScenario(spec);
  ASSERT_EQ(points.size(), 2u * 2u * 2u);
  // Order: rows x cols x seeds, indices consecutive.
  EXPECT_EQ(points[0].row_label, "4");
  EXPECT_EQ(points[0].col_label, "HotStuff");
  EXPECT_EQ(points[0].seed, 1u);
  EXPECT_EQ(points[1].seed, 2u);
  EXPECT_EQ(points[2].col_label, "HotStuff-1");
  EXPECT_EQ(points[4].row_label, "7");
  for (size_t i = 0; i < points.size(); ++i) EXPECT_EQ(points[i].index, i);
  // Mutators applied: n and protocol took effect.
  EXPECT_EQ(points[0].config.n, 4u);
  EXPECT_EQ(points[4].config.n, 7u);
  EXPECT_EQ(points[2].config.protocol, ProtocolKind::kHotStuff1);
}

TEST(ScenarioExpansionTest, SmokeSubsamplesAxesAndShrinksWindows) {
  ScenarioSpec spec = TinySpec();
  spec.base.duration = Seconds(30);
  spec.rows.push_back({"10", [](ExperimentConfig& c) { c.n = 10; }});
  const std::vector<SweepPoint> points = ExpandScenario(spec, /*smoke=*/true);
  // Rows subsampled to endpoints {4, 10}, seeds to 1.
  ASSERT_EQ(points.size(), 2u * 2u);
  EXPECT_EQ(points.front().row_label, "4");
  EXPECT_EQ(points.back().row_label, "10");
  for (const SweepPoint& p : points) {
    EXPECT_LE(p.config.duration, Millis(120));
    EXPECT_EQ(p.mode, RunMode::kSingle);
  }
}

TEST(ScenarioRegistryTest, AllScenariosExpandNonzeroDuplicateFree) {
  const auto all = ScenarioRegistry::Instance().All();
  ASSERT_GE(all.size(), 10u);  // the ten former bench binaries
  for (const ScenarioSpec* spec : all) {
    SCOPED_TRACE(spec->name);
    EXPECT_NE(ScenarioRegistry::Instance().Find(spec->name), nullptr);
    for (bool smoke : {false, true}) {
      const std::vector<SweepPoint> points = ExpandScenario(*spec, smoke);
      EXPECT_FALSE(points.empty());
      std::set<std::tuple<std::string, std::string, std::string, uint64_t>> seen;
      for (const SweepPoint& p : points) {
        EXPECT_TRUE(
            seen.insert({p.table_label, p.row_label, p.col_label, p.seed}).second)
            << "duplicate point " << p.table_label << "/" << p.row_label << "/"
            << p.col_label << "/" << p.seed;
      }
    }
  }
}

TEST(ScenarioRegistryTest, FormerBenchBinariesAreRegistered) {
  for (const char* name :
       {"fig8_scalability", "fig8_batching", "fig8_geo", "fig9_delay",
        "fig9_georegions", "fig10_slowness", "fig10_tailfork", "fig10_rollback",
        "ablation"}) {
    EXPECT_NE(ScenarioRegistry::Instance().Find(name), nullptr) << name;
  }
}

std::string RunCsv(const ScenarioSpec& spec, int jobs, bool smoke) {
  SweepRunner runner(jobs);
  const SweepOutcome outcome = runner.Run(spec, smoke);
  std::ostringstream os;
  EmitCsv(outcome, os);
  return os.str();
}

TEST(SweepRunnerTest, MergedCsvIsIdenticalAtAnyWorkerCount) {
  const ScenarioSpec spec = TinySpec();
  const std::string serial = RunCsv(spec, /*jobs=*/1, /*smoke=*/false);
  const std::string parallel = RunCsv(spec, /*jobs=*/8, /*smoke=*/false);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);  // byte-identical merged output
}

TEST(SweepRunnerTest, RegisteredScenarioSmokeIsWorkerCountIndependent) {
  const ScenarioSpec* spec = ScenarioRegistry::Instance().Find("fig8_scalability");
  ASSERT_NE(spec, nullptr);
  const std::string serial = RunCsv(*spec, /*jobs=*/1, /*smoke=*/true);
  const std::string parallel = RunCsv(*spec, /*jobs=*/8, /*smoke=*/true);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(SweepRunnerTest, TableAndJsonEmittersAreOrderStable) {
  const ScenarioSpec spec = TinySpec();
  SweepRunner one(1), eight(8);
  const SweepOutcome a = one.Run(spec);
  const SweepOutcome b = eight.Run(spec);
  std::ostringstream ta, tb, ja, jb;
  EmitTables(a, ta);
  EmitTables(b, tb);
  EmitJson(a, ja);
  EmitJson(b, jb);
  EXPECT_EQ(ta.str(), tb.str());
  EXPECT_EQ(ja.str(), jb.str());
}

TEST(SweepRunnerTest, MultiSeedTablesCarryVarianceColumns) {
  const ScenarioSpec spec = TinySpec();  // seeds = {1, 2}
  SweepRunner runner(1);
  const SweepOutcome outcome = runner.Run(spec);
  std::ostringstream os;
  EmitTables(outcome, os);
  const std::string text = os.str();
  // Every cell aggregates 2 seeds, so the spread marker and its legend must
  // be present; with a single seed neither appears.
  EXPECT_NE(text.find("±"), std::string::npos) << text;
  EXPECT_NE(text.find("sample stddev"), std::string::npos);

  ScenarioSpec single = TinySpec();
  single.seeds = {1};
  std::ostringstream os1;
  EmitTables(SweepRunner(1).Run(single), os1);
  EXPECT_EQ(os1.str().find("±"), std::string::npos);
}

TEST(SweepRunnerTest, SimJobsOverrideRespectsSimJobsAxis) {
  // One respect-the-axis rule for every knob: a scenario that sweeps the
  // knob itself keeps its axis values even when the runner carries an
  // override; a scenario that does not gets the override on every point.
  ScenarioSpec sweeping = TinySpec();
  sweeping.rows.clear();
  for (uint32_t jobs : {1u, 2u}) {
    sweeping.rows.push_back({std::to_string(jobs), [jobs](ExperimentConfig& c) {
                               c.sim_jobs = jobs;
                             }});
  }
  const SweepOutcome swept = SweepRunner(1, {{"sim-jobs", "8"}}).Run(sweeping);
  for (const SweepPoint& p : swept.points) {
    EXPECT_EQ(p.config.sim_jobs, static_cast<uint32_t>(std::stoi(p.row_label)));
  }

  const SweepOutcome plain = SweepRunner(1, {{"sim-jobs", "2"}}).Run(TinySpec());
  for (const SweepPoint& p : plain.points) {
    EXPECT_EQ(p.config.sim_jobs, 2u);
  }

  // The same rule for a second knob: a cert_scheme column axis survives a
  // --cert-scheme override while an unswept knob given alongside it applies.
  ScenarioSpec schemes = TinySpec();
  schemes.cols = {
      {"vector",
       [](ExperimentConfig& c) { c.cert_scheme = CertScheme::kMultisigVector; }},
      {"threshold", [](ExperimentConfig& c) { c.cert_scheme = CertScheme::kThreshold; }}};
  const SweepOutcome kept =
      SweepRunner(1, {{"cert-scheme", "aggregate"}, {"sim-jobs", "2"}}).Run(schemes);
  for (const SweepPoint& p : kept.points) {
    EXPECT_EQ(CertSchemeName(p.config.cert_scheme), p.col_label);
    EXPECT_EQ(p.config.sim_jobs, 2u);
  }
  const SweepOutcome forced =
      SweepRunner(1, {{"cert-scheme", "aggregate"}}).Run(TinySpec());
  for (const SweepPoint& p : forced.points) {
    EXPECT_EQ(p.config.cert_scheme, CertScheme::kAggregate);
  }
}

TEST(SweepRunnerTest, OverridesApplyUnderSmoke) {
  // --smoke clamps every point's duration, which must not read as a duration
  // axis: the axis check sees the points before the smoke mutator, and the
  // flag wins over the shrink. The swept n keeps its row values.
  ScenarioSpec spec = TinySpec();
  spec.base.duration = Seconds(30);
  const SweepOutcome outcome =
      SweepRunner(1, {{"duration_ms", "60"}, {"n", "10"}}).Run(spec, /*smoke=*/true);
  ASSERT_TRUE(outcome.error.empty()) << outcome.error;
  ASSERT_FALSE(outcome.points.empty());
  for (const SweepPoint& p : outcome.points) {
    EXPECT_EQ(p.config.duration, Millis(60));
    EXPECT_EQ(std::to_string(p.config.n), p.row_label);
  }
}

TEST(SweepRunnerTest, OverrideThatBreaksAPointRunsNothing) {
  // --faulty=5 cannot run at TinySpec's n=4 row, and --clients=4194305
  // overflows one client group's closed-loop slots: the sweep reports each
  // in flag terms (hs1bench exits 2) instead of aborting inside the run.
  for (const KnobSetting& bad : {KnobSetting{"faulty", "5"},
                                 KnobSetting{"clients", "4194305"}}) {
    const SweepOutcome outcome = SweepRunner(1, {bad}).Run(TinySpec());
    EXPECT_NE(outcome.error.find("--" + bad.flag + "=" + bad.value), std::string::npos)
        << outcome.error;
    EXPECT_TRUE(outcome.results.empty());
  }
}

TEST(SweepRunnerTest, ComputeStatsMatchesHandValues) {
  const SampleStats empty = ComputeStats({});
  EXPECT_EQ(empty.count, 0u);
  const SampleStats one = ComputeStats({5.0});
  EXPECT_EQ(one.count, 1u);
  EXPECT_DOUBLE_EQ(one.mean, 5.0);
  EXPECT_DOUBLE_EQ(one.stddev, 0.0);
  const SampleStats s = ComputeStats({2.0, 4.0, 6.0});
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);  // sqrt(((2-4)^2+(0)^2+(2)^2)/2)
  EXPECT_NEAR(s.ci95, 1.96 * 2.0 / std::sqrt(3.0), 1e-12);
}

// Synthetic results for `points`: every point accepted and committed, and
// no verdict raised.
std::vector<ExperimentResult> CleanResults(const std::vector<SweepPoint>& points) {
  std::vector<ExperimentResult> results(points.size());
  for (ExperimentResult& r : results) {
    r.accepted = 100;
    r.committed_blocks = 10;
    r.bytes_sent = 10'000;
  }
  return results;
}

bool Mentions(const std::vector<std::string>& failures, const std::string& text) {
  return std::any_of(failures.begin(), failures.end(), [&](const std::string& f) {
    return f.find(text) != std::string::npos;
  });
}

TEST(JudgeTest, NoViolationsFailsOnEveryVerdictFamily) {
  const std::vector<SweepPoint> points = ExpandScenario(TinySpec());
  std::vector<ExperimentResult> results = CleanResults(points);
  EXPECT_TRUE(NoViolations(points, results).empty());
  results[1].accepted = 0;  // idle is not a violation
  EXPECT_TRUE(NoViolations(points, results).empty());

  results[3].oracle_violations = 2;
  results[3].oracle_first_violation = "commit-conflict at t=5";
  std::vector<std::string> failures = NoViolations(points, results);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0], "ORACLE VIOLATION (2 total): commit-conflict at t=5");

  results = CleanResults(points);
  results[5].liveness_violations = 1;
  results[5].liveness_first_violation = "liveness-silence";
  results[6].safety_ok = false;
  failures = NoViolations(points, results);
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_EQ(failures[0], "LIVENESS VIOLATION (1 total): liveness-silence");
  EXPECT_EQ(failures[1], "SAFETY VIOLATION");
}

TEST(JudgeTest, EveryPointAcceptsNamesEachIdlePoint) {
  const std::vector<SweepPoint> points = ExpandScenario(TinySpec());
  std::vector<ExperimentResult> results = CleanResults(points);
  EXPECT_TRUE(EveryPointAccepts(points, results).empty());
  results[2].accepted = 0;
  std::vector<std::string> failures = EveryPointAccepts(points, results);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0], "point [- | 4 | HotStuff-1 | seed 1] accepted no transactions");
  results[4].oracle_violations = 1;  // and it still holds NoViolations
  EXPECT_EQ(EveryPointAccepts(points, results).size(), 2u);

  // The scenarios whose claim is "every point commits" carry this judge.
  for (const char* name : {"fig8_scalability_xl", "cost_model", "fig_saturation"}) {
    SCOPED_TRACE(name);
    const ScenarioSpec* spec = ScenarioRegistry::Instance().Find(name);
    ASSERT_NE(spec, nullptr);
    const std::vector<SweepPoint> smoke = ExpandScenario(*spec, /*smoke=*/true);
    std::vector<ExperimentResult> rs = CleanResults(smoke);
    EXPECT_TRUE(spec->judge(smoke, rs).empty());
    rs.back().accepted = 0;
    EXPECT_TRUE(Mentions(spec->judge(smoke, rs), "accepted no transactions"));
  }
}

TEST(JudgeTest, JudgeEachPointNamesEveryRejectedPoint) {
  const std::vector<SweepPoint> points = ExpandScenario(TinySpec());
  const ScenarioJudge judge = JudgeEachPoint(
      [](const SweepPoint& p, const ExperimentResult&) { return p.row_label != "7"; });
  const std::vector<std::string> failures = judge(points, CleanResults(points));
  ASSERT_EQ(failures.size(), 4u);  // row 7 x 2 protocols x 2 seeds
  EXPECT_EQ(failures[0], "point [- | 7 | HotStuff | seed 1] did not behave as the "
                         "scenario expects");
}

TEST(JudgeTest, CertSizeJudgeHoldsTheCrossoverAtN512) {
  const ScenarioSpec* spec = ScenarioRegistry::Instance().Find("fig_cert_size");
  ASSERT_NE(spec, nullptr);
  const std::vector<SweepPoint> points = ExpandScenario(*spec, /*smoke=*/true);
  std::vector<ExperimentResult> results = CleanResults(points);
  auto at_512 = [&](CertScheme scheme) -> ExperimentResult& {
    for (size_t i = 0; i < points.size(); ++i) {
      if (points[i].config.n == 512 && points[i].config.cert_scheme == scheme) {
        return results[i];
      }
    }
    ADD_FAILURE() << "no n=512 point for " << CertSchemeName(scheme);
    return results.front();
  };
  // 10 blocks each: 1,000 aggregate against 10,010 vector bytes per block.
  at_512(CertScheme::kAggregate).bytes_sent = 10'000;
  at_512(CertScheme::kMultisigVector).bytes_sent = 100'100;
  EXPECT_TRUE(spec->judge(points, results).empty());

  at_512(CertScheme::kMultisigVector).bytes_sent = 100'000;  // exactly 10x
  std::vector<std::string> failures = spec->judge(points, results);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("at n=512"), std::string::npos) << failures[0];

  at_512(CertScheme::kMultisigVector).bytes_sent = 100'100;
  at_512(CertScheme::kAggregate).committed_blocks = 0;  // no aggregate bytes/block
  EXPECT_EQ(spec->judge(points, results).size(), 1u);

  at_512(CertScheme::kAggregate).committed_blocks = 10;
  results.front().accepted = 0;  // the crossover holds, but a point is idle
  failures = spec->judge(points, results);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("accepted no transactions"), std::string::npos);
}

TEST(JudgeTest, RunScenarioExitsWithTheJudgesVerdict) {
  ScenarioSpec spec = TinySpec();
  spec.rows.resize(1);
  spec.cols.resize(1);
  spec.seeds = {1};
  std::ostringstream sink;
  ScenarioRunOptions options;
  options.format = ReportFormat::kCsv;
  options.out = &sink;
  EXPECT_EQ(RunScenario(spec, options), 0);  // the default NoViolations, clean
  spec.judge = [](const std::vector<SweepPoint>&, const std::vector<ExperimentResult>&) {
    return std::vector<std::string>{};
  };
  EXPECT_EQ(RunScenario(spec, options), 0);
  spec.judge = [](const std::vector<SweepPoint>& points,
                  const std::vector<ExperimentResult>&) {
    EXPECT_EQ(points.size(), 1u);
    return std::vector<std::string>{"the claim does not hold"};
  };
  EXPECT_EQ(RunScenario(spec, options), 1);
}

// The claims count rows, so the sweeps must keep the rows the claims name.
TEST(ScenarioClaimsTest, ScalabilityXlSmokeKeepsN512ForEveryProtocol) {
  const ScenarioSpec* spec = ScenarioRegistry::Instance().Find("fig8_scalability_xl");
  ASSERT_NE(spec, nullptr);
  std::set<ProtocolKind> at_512;
  for (const SweepPoint& p : ExpandScenario(*spec, /*smoke=*/true)) {
    if (p.config.n == 512) at_512.insert(p.config.protocol);
  }
  EXPECT_EQ(at_512.size(), 3u);
}

TEST(ScenarioClaimsTest, FigReconfigHas16ChurnRowsAmong20Points) {
  const ScenarioSpec* spec = ScenarioRegistry::Instance().Find("fig_reconfig");
  ASSERT_NE(spec, nullptr);
  const std::vector<SweepPoint> points = ExpandScenario(*spec);
  EXPECT_EQ(points.size(), 20u);
  EXPECT_EQ(std::count_if(points.begin(), points.end(),
                          [](const SweepPoint& p) {
                            return p.config.reconfig.steps.size() > 1;
                          }),
            16);
}

TEST(ScenarioClaimsTest, FuzzOverThresholdHas11Tuples) {
  const ScenarioSpec* spec = ScenarioRegistry::Instance().Find("fuzz_overthreshold");
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(ExpandScenario(*spec).size(), 11u);
}

TEST(EventCapTest, SimulatorReportsTruncation) {
  sim::Simulator sim;
  sim.SetEventCap(10);
  std::function<void()> loop = [&] { sim.After(1, loop); };
  sim.After(1, loop);
  sim.Run();
  EXPECT_TRUE(sim.cap_hit());

  sim::Simulator clean;
  clean.After(1, [] {});
  clean.Run();
  EXPECT_FALSE(clean.cap_hit());
}

TEST(EventCapTest, ExperimentPropagatesCapHitAsDiagnostic) {
  ExperimentConfig cfg;
  cfg.n = 4;
  cfg.batch_size = 10;
  cfg.num_clients = 20;
  cfg.duration = Millis(50);
  cfg.warmup = Millis(10);
  cfg.event_cap = 500;  // far below what the run needs
  const ExperimentResult truncated = RunExperiment(cfg);
  EXPECT_TRUE(truncated.event_cap_hit);

  cfg.event_cap = 0;  // unlimited
  const ExperimentResult clean = RunExperiment(cfg);
  EXPECT_FALSE(clean.event_cap_hit);
}

}  // namespace
}  // namespace hotstuff1
