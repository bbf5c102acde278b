// Saturation study: throughput and tail latency vs offered load, under each
// open-loop arrival process (Poisson, bursty, diurnal, flash crowd), for
// HotStuff vs HotStuff-2 vs HotStuff-1.
//
// Unlike the paper figures (closed-loop, self-regulating load), these sweeps
// drive the committee with an open-loop generator over a 1.2M-strong lazy
// client population, so offered load is an independent axis: throughput
// tracks the load up to the service knee (~98k txn/s at n=16, batch=100 —
// the batch-per-view pipeline limit shared by all three protocols) and
// flattens past it while the backlog column grows. Below the knee the
// protocols separate on latency — HotStuff-1's single-phase speculative
// response shows up in p50/p99/p999.

#include "runtime/report.h"
#include "runtime/scenario.h"

namespace hotstuff1 {
namespace {

ScenarioSpec FigSaturation() {
  ScenarioSpec spec;
  spec.name = "fig_saturation";
  spec.title = "Saturation: open-loop offered load to the knee (n=16, batch=100)";
  spec.description =
      "throughput + p50/p99/p999 vs offered load per arrival process";
  spec.table_name = "arrival";
  spec.row_name = "load_tps";

  spec.base.n = 16;
  spec.base.batch_size = 100;
  spec.base.duration = Millis(800);
  spec.base.warmup = Millis(200);
  spec.base.view_timer = Millis(10);
  spec.base.delta = Millis(1);
  spec.base.seed = 2025;
  // Million-client open-loop population, sharded 8 ways. Client records are
  // lazy (see client/client_pool.h): the population is a label space, so
  // steady-state heap usage is identical to a 10k-client run —
  // tests/client_alloc_test.cc pins that.
  spec.base.num_clients = 1'200'000;
  spec.base.client_groups = 8;
  spec.base.arrival.kind = ArrivalKind::kPoisson;

  for (ArrivalKind kind : {ArrivalKind::kPoisson, ArrivalKind::kBursty,
                           ArrivalKind::kDiurnal, ArrivalKind::kFlashCrowd}) {
    spec.tables.push_back({ArrivalKindName(kind), [kind](ExperimentConfig& c) {
                             c.arrival.kind = kind;
                           }});
  }
  // Row loads straddle the measured n=16 knee (~98k txn/s): three points
  // below it where latency separates the protocols, one at it, one past it
  // where throughput flattens and backlog diverges.
  for (double load : {25'000.0, 50'000.0, 75'000.0, 100'000.0, 150'000.0}) {
    spec.rows.push_back({FormatCount(static_cast<uint64_t>(load)),
                         [load](ExperimentConfig& c) {
                           c.arrival.offered_load_tps = load;
                         }});
  }
  for (ProtocolKind kind : {ProtocolKind::kHotStuff, ProtocolKind::kHotStuff2,
                            ProtocolKind::kHotStuff1}) {
    spec.cols.push_back({ProtocolName(kind), [kind](ExperimentConfig& c) {
                           c.protocol = kind;
                         }});
  }
  spec.metrics = {ThroughputMetric(), P50LatencyMetric(), P99LatencyMetric(),
                  P999LatencyMetric(),
                  CountMetric("backlog", [](const ExperimentResult& r) {
                    return static_cast<double>(r.backlog);
                  })};
  // Open loop measures one operating point per config; the paper-point
  // saturated/light split only makes sense for closed-loop figures.
  spec.mode = RunMode::kSingle;

  // CI smoke: shrink the window and compress every arrival process's time
  // structure into it, so even the 120ms run exercises the flash ramp and a
  // full diurnal period (the default smoke would leave flash_start at 400ms,
  // past the end of the run).
  spec.smoke = [](ExperimentConfig& cfg) {
    cfg.duration = std::min<SimTime>(cfg.duration, Millis(120));
    cfg.warmup = std::min<SimTime>(cfg.warmup, Millis(40));
    cfg.arrival.diurnal_period = Millis(60);
    cfg.arrival.flash_start = Millis(50);
    cfg.arrival.flash_rise = Millis(10);
    cfg.arrival.flash_decay = Millis(30);
  };
  // Past the knee timeouts and backlog are the measurement, not failures;
  // a point that accepts nothing is.
  spec.judge = EveryPointAccepts;
  return spec;
}

HS1_REGISTER_SCENARIO(FigSaturation);

}  // namespace
}  // namespace hotstuff1
