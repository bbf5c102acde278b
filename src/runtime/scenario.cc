#include "runtime/scenario.h"

#include <algorithm>

#include "common/logging.h"
#include "runtime/report.h"

namespace hotstuff1 {

MetricSpec ThroughputMetric() {
  return {"throughput_tps",
          [](const ExperimentResult& r) { return r.throughput_tps; },
          [](double v) { return FormatTps(v); }};
}

MetricSpec AvgLatencyMetric() {
  return {"avg_latency_ms",
          [](const ExperimentResult& r) { return r.avg_latency_ms; },
          [](double v) { return FormatMs(v); }};
}

MetricSpec P50LatencyMetric() {
  return {"p50_latency_ms",
          [](const ExperimentResult& r) { return r.p50_latency_ms; },
          [](double v) { return FormatMs(v); }};
}

MetricSpec P99LatencyMetric() {
  return {"p99_latency_ms",
          [](const ExperimentResult& r) { return r.p99_latency_ms; },
          [](double v) { return FormatMs(v); }};
}

MetricSpec P999LatencyMetric() {
  return {"p999_latency_ms",
          [](const ExperimentResult& r) { return r.p999_latency_ms; },
          [](double v) { return FormatMs(v); }};
}

MetricSpec CountMetric(std::string name,
                       std::function<double(const ExperimentResult&)> value) {
  return {std::move(name), std::move(value),
          [](double v) { return FormatCount(static_cast<uint64_t>(v)); }};
}

Axis PaperProtocolAxis() {
  Axis axis;
  for (ProtocolKind kind :
       {ProtocolKind::kHotStuff, ProtocolKind::kHotStuff2, ProtocolKind::kHotStuff1,
        ProtocolKind::kHotStuff1Slotted}) {
    axis.push_back(
        {ProtocolName(kind), [kind](ExperimentConfig& c) { c.protocol = kind; }});
  }
  return axis;
}

std::string PointLabel(const SweepPoint& p) {
  auto label = [](const std::string& l) { return l.empty() ? std::string("-") : l; };
  return "[" + label(p.table_label) + " | " + label(p.row_label) + " | " +
         label(p.col_label) + " | seed " + std::to_string(p.seed) + "]";
}

std::vector<std::string> NoViolations(const std::vector<SweepPoint>&,
                                      const std::vector<ExperimentResult>& results) {
  ExperimentResult total;  // the sweep's verdicts, merged in spec order
  for (const ExperimentResult& r : results) MergeVerdicts(r, &total);
  std::vector<std::string> failures;
  if (const uint64_t v = total.oracle_violations; v > 0) {
    failures.push_back("ORACLE VIOLATION (" + std::to_string(v) +
                       " total): " + total.oracle_first_violation);
  }
  if (const uint64_t v = total.liveness_violations; v > 0) {
    failures.push_back("LIVENESS VIOLATION (" + std::to_string(v) +
                       " total): " + total.liveness_first_violation);
  }
  if (!total.safety_ok) failures.push_back("SAFETY VIOLATION");
  return failures;
}

std::vector<std::string> EveryPointAccepts(const std::vector<SweepPoint>& points,
                                           const std::vector<ExperimentResult>& results) {
  std::vector<std::string> failures = NoViolations(points, results);
  for (size_t i = 0; i < points.size(); ++i) {
    if (results[i].accepted == 0) {
      failures.push_back("point " + PointLabel(points[i]) + " accepted no transactions");
    }
  }
  return failures;
}

ScenarioJudge JudgeEachPoint(
    std::function<bool(const SweepPoint&, const ExperimentResult&)> expect) {
  return [expect = std::move(expect)](const std::vector<SweepPoint>& points,
                                      const std::vector<ExperimentResult>& results) {
    std::vector<std::string> failures;
    for (size_t i = 0; i < points.size(); ++i) {
      if (expect(points[i], results[i])) continue;
      failures.push_back("point " + PointLabel(points[i]) +
                         " did not behave as the scenario expects");
    }
    return failures;
  };
}

namespace {

// CI-sized default: a short window is enough to prove the point executes and
// stays safe; figures use the full spec.
void DefaultSmoke(ExperimentConfig& cfg) {
  cfg.duration = std::min<SimTime>(cfg.duration, Millis(120));
  cfg.warmup = std::min<SimTime>(cfg.warmup, Millis(40));
}

// Smoke runs keep only the endpoints of an axis: first and last point cover
// the extremes without CI paying for the interior.
Axis SubsampleEndpoints(const Axis& axis) {
  if (axis.size() <= 2) return axis;
  return {axis.front(), axis.back()};
}

}  // namespace

std::vector<SweepPoint> ExpandScenario(const ScenarioSpec& spec, bool smoke,
                                       const std::vector<KnobSetting>& overrides) {
  const Axis no_axis{{"", nullptr}};
  Axis tables = spec.tables.empty() ? no_axis : spec.tables;
  Axis rows = spec.rows.empty() ? no_axis : spec.rows;
  const Axis& cols = spec.cols.empty() ? no_axis : spec.cols;
  std::vector<uint64_t> seeds =
      spec.seeds.empty() ? std::vector<uint64_t>{spec.base.seed} : spec.seeds;
  if (smoke) {
    tables = SubsampleEndpoints(tables);
    rows = SubsampleEndpoints(rows);
    seeds.resize(1);
  }

  std::vector<SweepPoint> points;
  points.reserve(tables.size() * rows.size() * cols.size() * seeds.size());
  for (const AxisPoint& table : tables) {
    for (const AxisPoint& row : rows) {
      for (const AxisPoint& col : cols) {
        for (uint64_t seed : seeds) {
          SweepPoint p;
          p.index = points.size();
          p.table_label = table.label;
          p.row_label = row.label;
          p.col_label = col.label;
          p.seed = seed;
          p.mode = smoke ? RunMode::kSingle : spec.mode;
          p.config = spec.base;
          // The point seed is assigned before the mutators run, so an axis
          // may derive (or wholly replace) the configuration from it — the
          // fuzz scenario's rows do exactly that. Ordinary axes never touch
          // config.seed, so they observe the same semantics as before.
          p.config.seed = seed;
          if (table.apply) table.apply(p.config);
          if (row.apply) row.apply(p.config);
          if (col.apply) col.apply(p.config);
          points.push_back(std::move(p));
        }
      }
    }
  }

  // The axis check reads the points as the axes left them: a smoke mutator
  // that rewrites a knob on every point does not make that knob swept.
  std::vector<std::pair<const Knob*, std::string>> forced;
  for (const KnobSetting& o : overrides) {
    const Knob* knob = FindKnob(o.flag);
    HS1_CHECK(knob != nullptr && knob->set) << "--" << o.flag << " is not a config knob";
    const std::string at_base = knob->get(spec.base);
    const bool swept = std::any_of(points.begin(), points.end(), [&](const SweepPoint& p) {
      return knob->get(p.config) != at_base;
    });
    if (!swept) forced.emplace_back(knob, o.value);
  }
  for (SweepPoint& p : points) {
    if (smoke) (spec.smoke ? spec.smoke : DefaultSmoke)(p.config);
    for (const auto& [knob, value] : forced) {
      HS1_CHECK(knob->set(value, p.config, nullptr))
          << "bad override --" << knob->name << "=" << value;
    }
    // Reflect any mutator or override back into the point, so the CSV seed
    // column always names the seed the point actually ran — "a failing seed
    // IS the repro" must survive seed-deriving axes.
    p.seed = p.config.seed;
  }
  return points;
}

ScenarioRegistry& ScenarioRegistry::Instance() {
  static ScenarioRegistry* registry = new ScenarioRegistry();
  return *registry;
}

void ScenarioRegistry::Register(ScenarioSpec spec) {
  HS1_CHECK(!spec.name.empty()) << "scenario needs a name";
  HS1_CHECK(Find(spec.name) == nullptr) << "duplicate scenario: " << spec.name;
  specs_.push_back(std::move(spec));
}

const ScenarioSpec* ScenarioRegistry::Find(const std::string& name) const {
  for (const ScenarioSpec& s : specs_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<const ScenarioSpec*> ScenarioRegistry::All() const {
  std::vector<const ScenarioSpec*> all;
  all.reserve(specs_.size());
  for (const ScenarioSpec& s : specs_) all.push_back(&s);
  std::sort(all.begin(), all.end(),
            [](const ScenarioSpec* a, const ScenarioSpec* b) { return a->name < b->name; });
  return all;
}

ScenarioRegistrar::ScenarioRegistrar(ScenarioSpec spec) {
  ScenarioRegistry::Instance().Register(std::move(spec));
}

}  // namespace hotstuff1
