// Executes a ScenarioSpec: expands it into independent (config, seed) points,
// runs them on a worker pool (each Experiment owns its own Simulator/Network,
// so points are embarrassingly parallel), and merges results in deterministic
// spec order — output is byte-identical at any worker count.

#ifndef HOTSTUFF1_RUNTIME_SWEEP_RUNNER_H_
#define HOTSTUFF1_RUNTIME_SWEEP_RUNNER_H_

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "runtime/config_schema.h"
#include "runtime/scenario.h"

namespace hotstuff1 {

/// A completed sweep: points and index-aligned results.
struct SweepOutcome {
  const ScenarioSpec* spec = nullptr;
  std::vector<SweepPoint> points;
  std::vector<ExperimentResult> results;
  /// Set instead of results when an override made a point unrunnable.
  std::string error;
};

/// \brief Parallel executor for scenario sweeps.
///
/// Two orthogonal axes of parallelism compose here: `jobs` worker threads
/// each run whole (config, seed) points (every Experiment owns its own
/// Simulator/Network, so points never share state), while a `sim-jobs`
/// override sets the threads *inside* each point's simulator event loop.
/// Both are determinism-preserving: merged output is byte-identical at any
/// (jobs, sim-jobs) combination.
class SweepRunner {
 public:
  explicit SweepRunner(int jobs, std::vector<KnobSetting> overrides = {})
      : jobs_(jobs < 1 ? 1 : jobs), overrides_(std::move(overrides)) {}

  /// Runs every expanded point of `spec` and returns merged results. An
  /// override that leaves a point unrunnable sets `error` and runs nothing.
  SweepOutcome Run(const ScenarioSpec& spec, bool smoke = false) const;

 private:
  int jobs_;
  std::vector<KnobSetting> overrides_;
};

// Emitters over a merged outcome. All iterate points in spec order, so the
// bytes written are independent of the worker count that produced them.
void EmitTables(const SweepOutcome& outcome, std::ostream& os);
void EmitCsv(const SweepOutcome& outcome, std::ostream& os);
void EmitJson(const SweepOutcome& outcome, std::ostream& os);

/// Runs one registered scenario end to end, writes the requested format and
/// prints each message of the scenario's judge (ScenarioSpec::judge) to
/// stderr. Returns a process exit code: 0 when the judge passes, 1 when it
/// fails, 2 when an override leaves a point unrunnable.
int RunScenario(const ScenarioSpec& spec, const ScenarioRunOptions& options);

/// The front end shared by hs1sim and hs1bench: --help, --list, and the
/// scenarios named by --scenario, --all or positional arguments. A command
/// line naming none goes to `run_point` with its resolved config (null:
/// usage error). Flag errors exit 2, as does a run-only option the chosen
/// mode does not read (KnobScope).
int CliMain(int argc, char** argv, const char* intro,
            const std::function<int(const CommandLine&)>& run_point);

}  // namespace hotstuff1

#endif  // HOTSTUFF1_RUNTIME_SWEEP_RUNNER_H_
