// hs1bench: the registry-driven benchmark harness. Every paper figure and
// ablation is a registered scenario; this binary lists and runs them.
//
// Examples:
//   hs1bench --list
//   hs1bench --scenario=fig8_scalability
//   hs1bench --scenario=fig9_delay --jobs=8 --format=csv
//   hs1bench --scenario=fig8_scalability --smoke --jobs=2   (CI-sized)
//   hs1bench --all --smoke

#include "runtime/sweep_runner.h"

namespace {

constexpr char kIntro[] = R"(hs1bench - registry-driven benchmark harness

Runs the scenarios named by --scenario, positional arguments or --all, and
exits 1 when a scenario's own claims fail. Unknown flags and malformed or
out-of-range values exit 2.
)";

}  // namespace

int main(int argc, char** argv) {
  return hotstuff1::CliMain(argc, argv, kIntro, nullptr);
}
