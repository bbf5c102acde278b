// The knob table: every setting hs1sim and hs1bench accept is declared once
// in config_schema.cc — flag name, strict range-checked parser, formatter,
// help text, and the field it sets. Generic loops over the table parse the
// command line, force scenario overrides (ExpandScenario), print --help and
// write DescribeConfig's repro strings. A new knob is one field, of
// ConsensusConfig for a protocol parameter or of ExperimentConfig for the
// world around it, plus one table row (docs/ARCHITECTURE.md, "Config knobs").

#ifndef HOTSTUFF1_RUNTIME_CONFIG_SCHEMA_H_
#define HOTSTUFF1_RUNTIME_CONFIG_SCHEMA_H_

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/experiment.h"

namespace hotstuff1 {

enum class KnobScope {
  kConfig,    // an ExperimentConfig field that is part of a run's repro
  kExecutor,  // an ExperimentConfig field results never depend on (sim_jobs,
              // lookahead): forced like kConfig, left out of repros
  // Options of the command line itself. A run-only option the chosen mode
  // does not read exits 2 (CliMain).
  kRun,          // either mode (--scenario, --list, --help, ...)
  kScenarioRun,  // scenarios only (--jobs, --format, --smoke)
  kPointRun,     // a single point only (--paper_point)
};

/// True for the scopes whose options set the CommandLine, not the config.
constexpr bool IsRunScope(KnobScope scope) { return scope >= KnobScope::kRun; }

struct CommandLine;

/// One declared setting. Config and executor knobs act on an
/// ExperimentConfig (`set`/`get`), run-only options on the CommandLine
/// (`set_run`/`get_run`). `set` rejects junk, signs, whitespace and
/// out-of-range values; `why` may carry a grammar's own message.
struct Knob {
  std::string name;    // flag name without the leading "--"
  std::string syntax;  // value syntax for --help and errors; "" for a switch
  std::string help;
  KnobScope scope = KnobScope::kConfig;
  std::function<bool(const std::string&, ExperimentConfig&, std::string* why)> set;
  std::function<std::string(const ExperimentConfig&)> get;
  std::function<bool(const std::string&, CommandLine&, std::string* why)> set_run;
  std::function<std::string(const CommandLine&)> get_run;
};

/// The table, in --help and DescribeConfig order.
const std::vector<Knob>& Knobs();
const Knob* FindKnob(std::string_view name);  // null when unknown

enum class ReportFormat { kTable = 0, kCsv = 1, kJson = 2 };

/// One config knob given on the command line, as typed: `flag` names a row
/// of the knob table, e.g. {"sim-jobs", "4"}.
struct KnobSetting {
  std::string flag;
  std::string value;
};

/// How a scenario runs (RunScenario, runtime/sweep_runner.h).
struct ScenarioRunOptions {
  int jobs = 1;          // worker threads across points (clamped to the count)
  bool smoke = false;    // CI-sized points, endpoint-subsampled axes
  ReportFormat format = ReportFormat::kTable;
  // Config knobs forced onto every point, except where the scenario sweeps
  // that knob itself (the respect-the-axis rule of ExpandScenario).
  std::vector<KnobSetting> overrides;
  std::ostream* out = nullptr;  // default std::cout
};

struct CommandLine {
  // hs1sim's defaults (ExperimentConfig's, but a 2 s measurement after a
  // 300 ms warmup with a 1 ms delta), then the knobs applied in order.
  ExperimentConfig config = [] {
    ExperimentConfig c;
    c.duration = Millis(2000);
    c.warmup = Millis(300);
    c.delta = Millis(1);
    return c;
  }();
  ScenarioRunOptions run;  // run.overrides: the config knobs as typed
  std::vector<const Knob*> run_flags;   // the run-only options given
  std::vector<std::string> positional;  // scenario names
  std::string scenario;
  bool all = false;
  bool list = false;
  bool help = false;
  bool paper_point = false;
};

/// Parses `--name=value`, bare `--switch` and positional arguments. Returns
/// false with a message naming the flag on an unknown flag or a malformed
/// or out-of-range value.
bool ParseCommandLine(int argc, const char* const* argv, CommandLine* out,
                      std::string* error);

/// What Experiment::Setup would otherwise abort on or silently ignore (a
/// strategy naming replicas or regions the run lacks), in flag terms; ""
/// when the config is runnable.
std::string CheckConfig(const ExperimentConfig& config);

/// The one post-parse step of an hs1sim point, so no default depends on
/// flag order: --regions > 1 without --timer_ms / --delta_ms takes the geo
/// timer (1200 ms) and delta (160 ms); --victims defaults to f of the final
/// --n; then CheckConfig. Experiment::Setup builds the geo topology from
/// the final n.
bool ResolveSinglePoint(CommandLine* cl, std::string* error);

/// The configuration as `--flag=value` pairs of every kConfig knob,
/// shell-quoted where needed, so it pastes into hs1sim. Embedded in oracle
/// diagnostics so a violation names its repro. The executor shape is left
/// out: results are byte-identical across it by contract, and including it
/// would make otherwise-identical diagnostics differ across executors.
std::string DescribeConfig(const ExperimentConfig& config);

/// `intro`, then every knob once, grouped by scope.
std::string HelpText(const char* intro);

}  // namespace hotstuff1

#endif  // HOTSTUFF1_RUNTIME_CONFIG_SCHEMA_H_
