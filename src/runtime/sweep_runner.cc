#include "runtime/sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <thread>
#include <tuple>

#include "common/logging.h"
#include "runtime/config_schema.h"
#include "runtime/report.h"

namespace hotstuff1 {

SweepOutcome SweepRunner::Run(const ScenarioSpec& spec, bool smoke) const {
  SweepOutcome outcome;
  outcome.spec = &spec;
  outcome.points = ExpandScenario(spec, smoke, overrides_);
  for (const SweepPoint& p : outcome.points) {
    outcome.error = CheckConfig(p.config);
    if (!outcome.error.empty()) return outcome;
  }
  outcome.results.resize(outcome.points.size());

  auto run_point = [&](size_t i) {
    const SweepPoint& p = outcome.points[i];
    outcome.results[i] = p.mode == RunMode::kPaperPoint ? RunPaperPoint(p.config)
                                                        : RunExperiment(p.config);
  };

  const size_t total = outcome.points.size();
  const size_t workers = std::min<size_t>(static_cast<size_t>(jobs_), total);
  if (workers <= 1) {
    for (size_t i = 0; i < total; ++i) run_point(i);
    return outcome;
  }

  // Points are independent (each Experiment owns its simulator); workers pull
  // indices from a shared counter and write into their own result slot, so
  // the merged vector is in spec order regardless of completion order.
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < total; i = next.fetch_add(1)) {
        run_point(i);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return outcome;
}

namespace {

// First-appearance-ordered unique labels along one point field.
std::vector<std::string> UniqueLabels(const std::vector<SweepPoint>& points,
                                      std::string SweepPoint::*field) {
  std::vector<std::string> labels;
  for (const SweepPoint& p : points) {
    const std::string& l = p.*field;
    if (std::find(labels.begin(), labels.end(), l) == labels.end()) labels.push_back(l);
  }
  return labels;
}

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// Diagnostics appended to every machine-readable row.
struct DiagColumn {
  const char* name;
  std::function<std::string(const ExperimentResult&)> value;
};

std::vector<DiagColumn> DiagColumns(const std::vector<MetricSpec>& metrics) {
  std::vector<DiagColumn> all = {
      {"accepted", [](const ExperimentResult& r) { return std::to_string(r.accepted); }},
      {"views", [](const ExperimentResult& r) { return std::to_string(r.views); }},
      {"timeouts", [](const ExperimentResult& r) { return std::to_string(r.timeouts); }},
      {"resubmissions",
       [](const ExperimentResult& r) { return std::to_string(r.resubmissions); }},
      {"backlog", [](const ExperimentResult& r) { return std::to_string(r.backlog); }},
      {"rollback_events",
       [](const ExperimentResult& r) { return std::to_string(r.rollback_events); }},
      {"safety_ok", [](const ExperimentResult& r) { return r.safety_ok ? "1" : "0"; }},
      {"event_cap_hit",
       [](const ExperimentResult& r) { return r.event_cap_hit ? "1" : "0"; }},
      // liveness_violations stays before oracle_violations only so that the
      // CSVs keep their bytes; CI gates look columns up by header name.
      {"liveness_violations",
       [](const ExperimentResult& r) {
         return std::to_string(r.liveness_violations);
       }},
      {"oracle_violations",
       [](const ExperimentResult& r) { return std::to_string(r.oracle_violations); }},
  };
  // A scenario metric with the same name (e.g. ablation's "views") already
  // carries the value; drop the diagnostic duplicate.
  std::vector<DiagColumn> kept;
  for (DiagColumn& d : all) {
    const bool shadowed =
        std::any_of(metrics.begin(), metrics.end(),
                    [&](const MetricSpec& m) { return m.name == d.name; });
    if (!shadowed) kept.push_back(std::move(d));
  }
  return kept;
}

/// One axis rendered as `name{label1,label2,...}` (long axes elided), so
/// --list shows exactly what a scenario sweeps and CI logs record what a gate
/// actually covered.
std::string FormatAxis(const std::string& name, const Axis& axis) {
  std::string out = name + "{";
  constexpr size_t kMaxLabels = 6;
  for (size_t i = 0; i < axis.size() && i < kMaxLabels; ++i) {
    if (i > 0) out += ",";
    out += axis[i].label.empty() ? "-" : axis[i].label;
  }
  if (axis.size() > kMaxLabels) out += ",...+" + std::to_string(axis.size() - kMaxLabels);
  return out + "}";
}

std::string DescribeAxes(const ScenarioSpec& spec) {
  std::string out;
  if (!spec.tables.empty()) {
    out += FormatAxis(spec.table_name.empty() ? "table" : spec.table_name, spec.tables);
  }
  if (!spec.rows.empty()) out += (out.empty() ? "" : " x ") + FormatAxis(spec.row_name, spec.rows);
  if (!spec.cols.empty()) out += (out.empty() ? "" : " x ") + FormatAxis("", spec.cols);
  if (out.empty()) out = "single point";
  return out + ", seeds=" + std::to_string(spec.seeds.empty() ? 1 : spec.seeds.size());
}

int ListScenarios() {
  for (const ScenarioSpec* spec : ScenarioRegistry::Instance().All()) {
    std::printf("%-18s %s\n", spec->name.c_str(), spec->description.c_str());
    std::printf("%-18s   axes: %s\n", "", DescribeAxes(*spec).c_str());
  }
  return 0;
}

}  // namespace

void EmitTables(const SweepOutcome& outcome, std::ostream& os) {
  const ScenarioSpec& spec = *outcome.spec;
  const std::vector<std::string> tables =
      UniqueLabels(outcome.points, &SweepPoint::table_label);
  const std::vector<std::string> rows =
      UniqueLabels(outcome.points, &SweepPoint::row_label);
  const std::vector<std::string> cols =
      UniqueLabels(outcome.points, &SweepPoint::col_label);

  // Per-seed samples per (table, row, col, metric); cells report the mean
  // and, with multiple seeds, the sample stddev ("mean ±sd"). Points are
  // visited in spec order, so the statistics — like every emitter — are
  // byte-identical at any worker count.
  std::map<std::tuple<std::string, std::string, std::string, size_t>,
           std::vector<double>>
      acc;
  bool multi_seed = false;
  for (size_t i = 0; i < outcome.points.size(); ++i) {
    const SweepPoint& p = outcome.points[i];
    for (size_t m = 0; m < spec.metrics.size(); ++m) {
      auto& samples = acc[{p.table_label, p.row_label, p.col_label, m}];
      samples.push_back(spec.metrics[m].value(outcome.results[i]));
      multi_seed = multi_seed || samples.size() > 1;
    }
  }

  for (const std::string& table : tables) {
    for (size_t m = 0; m < spec.metrics.size(); ++m) {
      std::string caption = spec.title;
      if (!table.empty()) {
        caption += " [" + (spec.table_name.empty() ? std::string("axis")
                                                   : spec.table_name) +
                   "=" + table + "]";
      }
      caption += " - " + spec.metrics[m].name;
      std::vector<std::string> header{spec.row_name};
      header.insert(header.end(), cols.begin(), cols.end());
      ReportTable report(caption, header);
      for (const std::string& row : rows) {
        std::vector<std::string> cells{row};
        for (const std::string& col : cols) {
          const SampleStats s = ComputeStats(acc[{table, row, col, m}]);
          if (s.count == 0) {
            cells.push_back("-");
          } else if (s.count == 1) {
            cells.push_back(spec.metrics[m].format(s.mean));
          } else {
            cells.push_back(spec.metrics[m].format(s.mean) + " ±" +
                            spec.metrics[m].format(s.stddev));
          }
        }
        report.AddRow(std::move(cells));
      }
      report.Print(os);
    }
  }
  if (multi_seed) {
    os << "(± = sample stddev over seeds; 95% CI half-width = 1.96*sd/sqrt(k))\n";
  }
  // Truncation is never silent: name the points whose simulator stopped at
  // its event cap (also visible as the event_cap_hit CSV/JSON column).
  size_t capped = 0;
  for (const ExperimentResult& r : outcome.results) capped += r.event_cap_hit ? 1 : 0;
  if (capped > 0) {
    os << "WARNING: " << capped << " of " << outcome.results.size()
       << " points hit the simulator event cap - their results are truncated:\n";
    size_t listed = 0;
    for (size_t i = 0; i < outcome.points.size() && listed < 8; ++i) {
      if (!outcome.results[i].event_cap_hit) continue;
      os << "  " << PointLabel(outcome.points[i]) << "\n";
      ++listed;
    }
    if (capped > listed) os << "  ... and " << (capped - listed) << " more\n";
  }
}

void EmitCsv(const SweepOutcome& outcome, std::ostream& os) {
  const ScenarioSpec& spec = *outcome.spec;
  const std::vector<DiagColumn> diags = DiagColumns(spec.metrics);
  os << "scenario,table,row,col,seed";
  for (const MetricSpec& m : spec.metrics) os << "," << CsvEscape(m.name);
  for (const DiagColumn& d : diags) os << "," << d.name;
  os << "\n";
  for (size_t i = 0; i < outcome.points.size(); ++i) {
    const SweepPoint& p = outcome.points[i];
    const ExperimentResult& r = outcome.results[i];
    os << CsvEscape(spec.name) << "," << CsvEscape(p.table_label) << ","
       << CsvEscape(p.row_label) << "," << CsvEscape(p.col_label) << "," << p.seed;
    for (const MetricSpec& m : spec.metrics) os << "," << FormatDouble(m.value(r));
    for (const DiagColumn& d : diags) os << "," << d.value(r);
    os << "\n";
  }
  os.flush();
}

void EmitJson(const SweepOutcome& outcome, std::ostream& os) {
  const ScenarioSpec& spec = *outcome.spec;
  const std::vector<DiagColumn> diags = DiagColumns(spec.metrics);
  os << "{\"scenario\":\"" << JsonEscape(spec.name) << "\",\"points\":[";
  for (size_t i = 0; i < outcome.points.size(); ++i) {
    const SweepPoint& p = outcome.points[i];
    const ExperimentResult& r = outcome.results[i];
    os << (i == 0 ? "" : ",") << "\n  {\"table\":\"" << JsonEscape(p.table_label)
       << "\",\"row\":\"" << JsonEscape(p.row_label) << "\",\"col\":\""
       << JsonEscape(p.col_label) << "\",\"seed\":" << p.seed;
    for (const MetricSpec& m : spec.metrics) {
      os << ",\"" << JsonEscape(m.name) << "\":" << FormatDouble(m.value(r));
    }
    for (const DiagColumn& d : diags) os << ",\"" << d.name << "\":" << d.value(r);
    os << "}";
  }
  os << "\n]}\n";
  os.flush();
}

int RunScenario(const ScenarioSpec& spec, const ScenarioRunOptions& options) {
  std::ostream& os = options.out ? *options.out : std::cout;
  const SweepOutcome outcome =
      SweepRunner(options.jobs, options.overrides).Run(spec, options.smoke);
  if (!outcome.error.empty()) {
    std::cerr << "scenario '" << spec.name << "': " << outcome.error << "\n";
    return 2;
  }
  switch (options.format) {
    case ReportFormat::kTable: EmitTables(outcome, os); break;
    case ReportFormat::kCsv: EmitCsv(outcome, os); break;
    case ReportFormat::kJson: EmitJson(outcome, os); break;
  }
  if (std::any_of(outcome.results.begin(), outcome.results.end(),
                  [](const ExperimentResult& r) { return r.event_cap_hit; })) {
    std::cerr << "warning: scenario '" << spec.name
              << "' hit the simulator event cap; results are truncated\n";
  }
  int code = 0;
  for (const std::string& failure : spec.judge(outcome.points, outcome.results)) {
    std::cerr << "scenario '" << spec.name << "': " << failure << "\n";
    code = 1;
  }
  return code;
}

int CliMain(int argc, char** argv, const char* intro,
            const std::function<int(const CommandLine&)>& run_point) {
  CommandLine cl;
  std::string error;
  if (!ParseCommandLine(argc, argv, &cl, &error)) {
    std::fprintf(stderr, "%s (see --help)\n", error.c_str());
    return 2;
  }
  if (cl.help) {
    // Explicit --help is a success; exit code 2 stays reserved for flag errors.
    std::fputs(HelpText(intro).c_str(), stdout);
    return 0;
  }
  if (cl.list) return ListScenarios();

  const ScenarioRegistry& registry = ScenarioRegistry::Instance();
  std::vector<std::string> names = cl.positional;
  if (!cl.scenario.empty()) names.push_back(cl.scenario);
  if (cl.all) {
    for (const ScenarioSpec* spec : registry.All()) names.push_back(spec->name);
  }
  if (names.empty() && !run_point) {
    std::fputs(HelpText(intro).c_str(), stderr);
    return 2;
  }
  // A run-only option the chosen mode does not read is an error, not a
  // silent no-op.
  const KnobScope unread = names.empty() ? KnobScope::kScenarioRun : KnobScope::kPointRun;
  for (const Knob* knob : cl.run_flags) {
    if (knob->scope != unread) continue;
    std::fprintf(stderr, "--%s applies to %s\n", knob->name.c_str(),
                 names.empty() ? "scenarios only (--scenario, --all or a scenario "
                                 "name), not to a single point"
                               : "a single point only, not to scenarios");
    return 2;
  }
  if (names.empty()) {
    if (!ResolveSinglePoint(&cl, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
    return run_point(cl);
  }
  std::vector<const ScenarioSpec*> specs;
  for (const std::string& name : names) {
    specs.push_back(registry.Find(name));
    if (specs.back() == nullptr) {
      std::fprintf(stderr, "unknown scenario '%s' (try --list)\n", name.c_str());
      return 2;
    }
  }
  int exit_code = 0;
  for (const ScenarioSpec* spec : specs) {
    if (const int code = RunScenario(*spec, cl.run); code != 0) exit_code = code;
  }
  return exit_code;
}

}  // namespace hotstuff1
