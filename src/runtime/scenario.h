// Declarative scenario engine: a ScenarioSpec describes a paper figure (or
// any experiment sweep) as axes over the ExperimentConfig space, metric
// columns and a judge of its claims, and a ScenarioRegistry makes every spec
// launchable by name from hs1bench / hs1sim. Specs are pure data + mutators;
// execution lives in sweep_runner.{h,cc}.

#ifndef HOTSTUFF1_RUNTIME_SCENARIO_H_
#define HOTSTUFF1_RUNTIME_SCENARIO_H_

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "runtime/config_schema.h"
#include "runtime/experiment.h"

namespace hotstuff1 {

/// One labelled position on a sweep axis: applied on top of the spec's base
/// config (and any outer axes) when the point is expanded.
///
/// Determinism: `apply` must be a pure function of the config it receives —
/// no I/O, no wall clock, no shared mutable state — because it runs once per
/// expanded point, possibly concurrently on sweep worker threads.
struct AxisPoint {
  std::string label;
  std::function<void(ExperimentConfig&)> apply;  // null = label-only
};

using Axis = std::vector<AxisPoint>;

/// A metric column: extract a raw value from an ExperimentResult, format it
/// for the human-readable table. `value` and `format` must be pure (they
/// run per point per emitter, in deterministic spec order), so every output
/// is a function of (config, seed).
struct MetricSpec {
  std::string name;
  std::function<double(const ExperimentResult&)> value;
  std::function<std::string(double)> format;
};

// Stock metrics used by most figure scenarios.
MetricSpec ThroughputMetric();
MetricSpec AvgLatencyMetric();
MetricSpec P50LatencyMetric();
MetricSpec P99LatencyMetric();
MetricSpec P999LatencyMetric();
MetricSpec CountMetric(std::string name,
                       std::function<double(const ExperimentResult&)> value);

/// The protocol column axis shared by the figure benches (HotStuff,
/// HotStuff-2, HotStuff-1, HS-1 slotted).
Axis PaperProtocolAxis();

/// How each expanded point is measured.
enum class RunMode {
  kPaperPoint,  // RunPaperPoint: saturated throughput + light-load latency
  kSingle,      // RunExperiment: one run per point
};

/// One expanded (config, seed) execution point of a scenario sweep.
struct SweepPoint {
  size_t index = 0;  // position in deterministic spec order
  std::string table_label, row_label, col_label;
  uint64_t seed = 0;
  RunMode mode = RunMode::kPaperPoint;
  ExperimentConfig config;
};

/// `[table | row | col | seed s]`, with `-` for an empty label.
std::string PointLabel(const SweepPoint& p);

/// A scenario's acceptance claims over its whole sweep. It sees every point
/// and its index-aligned result in spec order and returns one message per
/// failed claim; no message means the sweep passes. Must be pure, like the
/// metrics.
using ScenarioJudge = std::function<std::vector<std::string>(
    const std::vector<SweepPoint>& points, const std::vector<ExperimentResult>& results)>;

// Stock judges.
/// The default: no oracle, liveness or safety violation anywhere in the sweep.
std::vector<std::string> NoViolations(const std::vector<SweepPoint>& points,
                                      const std::vector<ExperimentResult>& results);
/// NoViolations, and every point accepted at least one transaction.
std::vector<std::string> EveryPointAccepts(const std::vector<SweepPoint>& points,
                                           const std::vector<ExperimentResult>& results);
/// Holds `expect` against each point: one message per point it rejects.
ScenarioJudge JudgeEachPoint(
    std::function<bool(const SweepPoint&, const ExperimentResult&)> expect);

/// \brief Declarative description of one benchmark scenario.
///
/// Expansion order is tables x rows x cols x seeds (all deterministic), with
/// mutators applied base -> table -> row -> col, so inner axes may derive
/// values (timers, durations) from what outer axes already set. The point's
/// seed is written into the config before the mutators run; axes normally
/// leave it alone, but may consult or override it (the fuzz scenario derives
/// entire configurations from per-row seeds).
///
/// Ownership/threading: specs are value types. The registry keeps one copy
/// alive for the process lifetime and hands out const pointers; the sweep
/// runner only ever reads a spec, so one spec may serve concurrent runs.
/// Authoring guide: docs/scenario-authoring.md.
struct ScenarioSpec {
  std::string name;         // registry key, e.g. "fig8_scalability"
  std::string title;        // table caption stem, e.g. "Figure 8(a,b): Scalability"
  std::string description;  // one line for --list
  std::string table_name;   // axis header, e.g. "delay" (empty if no table axis)
  std::string row_name = "x";  // row axis header, e.g. "n", "batch", "k"

  ExperimentConfig base;
  Axis tables;  // optional outer axis (one table group per point)
  Axis rows;    // x-axis of each table
  Axis cols;    // column axis, typically protocols
  std::vector<MetricSpec> metrics;
  std::vector<uint64_t> seeds;  // empty -> {base.seed}
  RunMode mode = RunMode::kPaperPoint;

  /// CI-sized override applied after all axes when running with --smoke.
  /// Null picks the default (short duration/warmup, kSingle measurement).
  std::function<void(ExperimentConfig&)> smoke;

  /// The scenario's claims: RunScenario exits 1 when this returns any
  /// message. Scenarios whose points *expect* a violation (fig_liveness's
  /// over-threshold rows, fuzz_overthreshold) or that claim more than a
  /// clean run (every point accepts, fig_cert_size's byte crossover) replace
  /// the default.
  ScenarioJudge judge = NoViolations;
};

/// Expands a spec into its deterministic point list. With `smoke`, the spec's
/// smoke mutator (or the default CI shrink) is applied to every point and the
/// row/table axes are subsampled to their endpoints.
///
/// Respect the axis: each of `overrides` is forced onto every point unless
/// some point's formatted value, after the axis mutators and before the
/// smoke mutator, differs from the spec base's. Then the scenario sweeps
/// that knob, and forcing it would relabel rows. Forced values go on after
/// the smoke mutator, so a flag given on the command line beats the shrink.
std::vector<SweepPoint> ExpandScenario(const ScenarioSpec& spec, bool smoke = false,
                                       const std::vector<KnobSetting>& overrides = {});

/// \brief Global name -> spec catalog; definitions self-register at load.
///
/// Threading: populated by static initializers before main() and read-only
/// afterwards, so lookups need no synchronization. Register at runtime only
/// from a single thread (tests do this before spawning workers).
class ScenarioRegistry {
 public:
  static ScenarioRegistry& Instance();

  /// Registers a spec (fatal on duplicate or empty name).
  void Register(ScenarioSpec spec);

  const ScenarioSpec* Find(const std::string& name) const;
  std::vector<const ScenarioSpec*> All() const;  // sorted by name

 private:
  std::vector<ScenarioSpec> specs_;
};

struct ScenarioRegistrar {
  explicit ScenarioRegistrar(ScenarioSpec spec);
};

/// Registers the ScenarioSpec returned by `maker` under a unique object name.
#define HS1_REGISTER_SCENARIO(maker) \
  static const ::hotstuff1::ScenarioRegistrar hs1_scenario_registrar_##maker{maker()}

}  // namespace hotstuff1

#endif  // HOTSTUFF1_RUNTIME_SCENARIO_H_
