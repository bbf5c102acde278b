// hs1sim: command-line driver for the HotStuff-1 simulation harness.
//
// Examples:
//   hs1sim --protocol=hotstuff1 --n=32 --batch=100 --duration_ms=2000
//   hs1sim --protocol=slotted --n=31 --strategy=0-:slow --faulty=10 --timer_ms=100
//   hs1sim --protocol=hotstuff2 --workload=tpcc --regions=3 --paper_point
//   hs1sim --scenario=fig8_scalability --jobs=4 --format=csv
//
// Prints a one-line machine-friendly summary plus a human-readable block.

#include <cstdio>
#include <string>

#include "runtime/config_schema.h"
#include "runtime/experiment.h"
#include "runtime/sweep_runner.h"

namespace hotstuff1 {
namespace {

constexpr char kIntro[] = R"(hs1sim - HotStuff-1 reproduction driver

Runs one experiment point, or registered scenarios (the hs1bench sweep
engine) with --scenario=<name> / --list. Unknown flags and malformed or
out-of-range values exit 2.
)";

int RunPoint(const CommandLine& cl) {
  const ExperimentConfig& cfg = cl.config;
  const ExperimentResult res = cl.paper_point ? RunPaperPoint(cfg)
                                              : RunExperiment(cfg);

  // Machine-friendly line first.
  std::printf(
      "RESULT protocol=\"%s\" n=%u batch=%u tput_tps=%.0f lat_avg_ms=%.3f "
      "lat_p50_ms=%.3f lat_p99_ms=%.3f lat_p999_ms=%.3f accepted=%llu spec=%llu "
      "views=%llu slots=%llu timeouts=%llu rollbacks=%llu resub=%llu "
      "backlog=%llu safety=%d cap_hit=%d liveness_violations=%llu "
      "oracle_violations=%llu\n",
      res.protocol.c_str(), cfg.n, cfg.batch_size, res.throughput_tps,
      res.avg_latency_ms, res.p50_latency_ms, res.p99_latency_ms,
      res.p999_latency_ms, static_cast<unsigned long long>(res.accepted),
      static_cast<unsigned long long>(res.accepted_speculative),
      static_cast<unsigned long long>(res.views),
      static_cast<unsigned long long>(res.slots),
      static_cast<unsigned long long>(res.timeouts),
      static_cast<unsigned long long>(res.rollback_events),
      static_cast<unsigned long long>(res.resubmissions),
      static_cast<unsigned long long>(res.backlog), res.safety_ok ? 1 : 0,
      res.event_cap_hit ? 1 : 0,
      static_cast<unsigned long long>(res.liveness_violations),
      static_cast<unsigned long long>(res.oracle_violations));

  std::printf("\n%s, n=%u (f=%u), batch=%u, %s%s\n", res.protocol.c_str(), cfg.n,
              cfg.f(), cfg.batch_size, FindKnob("workload")->get(cfg).c_str(),
              cfg.regions > 1
                  ? (", " + std::to_string(cfg.regions) + " regions").c_str()
                  : "");
  std::printf("  throughput   %10.0f txn/s\n", res.throughput_tps);
  std::printf("  latency      %10.2f ms avg, %.2f ms p99\n", res.avg_latency_ms,
              res.p99_latency_ms);
  std::printf("  speculative  %10llu of %llu accepts\n",
              static_cast<unsigned long long>(res.accepted_speculative),
              static_cast<unsigned long long>(res.accepted));
  std::printf("  safety       %10s\n", res.safety_ok ? "OK" : "VIOLATED");
  if (cfg.oracle_enabled) {
    std::printf("  oracle       %10s\n",
                res.oracle_violations == 0 ? "OK" : "VIOLATED");
    if (res.oracle_violations > 0) {
      std::printf("  %s\n", res.oracle_first_violation.c_str());
    }
    std::printf("  liveness     %10s\n",
                res.liveness_violations == 0 ? "OK" : "VIOLATED");
    if (res.liveness_violations > 0) {
      std::printf("  %s\n", res.liveness_first_violation.c_str());
    }
  }
  if (res.event_cap_hit) {
    std::printf("  WARNING: the simulator stopped at its event cap - this run "
                "was truncated, not drained\n");
  }
  return res.safety_ok && res.oracle_violations == 0 &&
                 res.liveness_violations == 0
             ? 0
             : 1;
}

}  // namespace
}  // namespace hotstuff1

int main(int argc, char** argv) {
  return hotstuff1::CliMain(argc, argv, hotstuff1::kIntro, hotstuff1::RunPoint);
}
