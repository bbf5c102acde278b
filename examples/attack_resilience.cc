// Attack resilience demo: what rational/malicious leaders do to a
// streamlined chain, and how slotting neutralizes them (§6).
//
// Runs four scenarios on a 13-replica cluster (f = 4): honest, leader
// slowness (D6), tail-forking (D7) and the rollback attack, for HotStuff-1
// with and without slotting.

#include <cstdio>

#include "runtime/experiment.h"

namespace {

// `behaviour` is what the faulty leaders do throughout: a strategy action
// such as kActSlow, i.e. the schedule "0-:slow" (kActNone = all honest).
hotstuff1::ExperimentResult Run(hotstuff1::ProtocolKind kind, uint32_t behaviour) {
  using namespace hotstuff1;
  ExperimentConfig cfg;
  cfg.protocol = kind;
  cfg.n = 13;
  cfg.batch_size = 50;
  cfg.duration = Seconds(1);
  cfg.warmup = Millis(250);
  cfg.view_timer = Millis(10);
  cfg.delta = Millis(1);
  cfg.strategy = StrategySchedule::Always(behaviour);
  cfg.num_faulty = behaviour == kActNone ? 0 : 4;  // f faulty leaders
  cfg.rollback_victims = 4;
  return RunPaperPoint(cfg);
}

}  // namespace

int main() {
  using namespace hotstuff1;

  struct Scenario {
    const char* name;
    uint32_t behaviour;
  };
  const Scenario scenarios[] = {
      {"honest", kActNone},
      {"slow leaders (D6)", kActSlow},
      {"tail-forking (D7)", kActTailFork},
      {"rollback attack", kActEquivocate},
  };

  for (ProtocolKind kind :
       {ProtocolKind::kHotStuff1, ProtocolKind::kHotStuff1Slotted}) {
    std::printf("\n=== %s ===\n", ProtocolName(kind));
    std::printf("%-20s %12s %12s %14s %10s\n", "scenario", "txn/s", "latency",
                "resubmissions", "rollbacks");
    double honest_tps = 0;
    for (const Scenario& s : scenarios) {
      const ExperimentResult res = Run(kind, s.behaviour);
      if (s.behaviour == kActNone) honest_tps = res.throughput_tps;
      std::printf("%-20s %12.0f %10.2fms %14llu %10llu", s.name,
                  res.throughput_tps, res.avg_latency_ms,
                  static_cast<unsigned long long>(res.resubmissions),
                  static_cast<unsigned long long>(res.rollback_events));
      if (s.behaviour != kActNone && honest_tps > 0) {
        std::printf("   (%+.1f%% tput)",
                    100.0 * (res.throughput_tps - honest_tps) / honest_tps);
      }
      std::printf("\n");
    }
  }

  std::printf(
      "\nSlotting gives each leader multiple proposals per view, so a slow\n"
      "leader only delays its own extra slots and a tail-forking successor\n"
      "must carry the previous leader's last slot instead of orphaning it\n"
      "(carry blocks + dual certificates, §6).\n");
  return 0;
}
