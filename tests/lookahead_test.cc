// Lookahead-horizon tests: the safe window the experiment layer derives for
// the parallel executor (Network::MinDeliveryLatency + the client response
// hop), its degenerate cases, the explicit window as an upper bound, and the
// proof that a window actually lets events of different timestamps run
// concurrently.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>

#include "runtime/experiment.h"
#include "runtime/scenario.h"
#include "runtime/sweep_runner.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "tests/result_equality.h"

namespace hotstuff1 {
namespace {

using sim::Network;
using sim::NetworkConfig;
using sim::Simulator;
using sim::Topology;

// --- horizon computation ----------------------------------------------------

TEST(HorizonTest, MinDeliveryLatencyPicksSmallestDirectedLink) {
  Simulator sim;
  Network net(&sim, 3);  // default bandwidth: serialization floor rounds to 0
  // Asymmetric geo-style latencies: the horizon must honor the cheapest
  // direction of the cheapest pair, not a symmetrized average.
  net.SetAllLatencies(Millis(40));
  net.SetLatency(0, 1, Millis(8));
  net.SetLatency(1, 0, Millis(95));
  EXPECT_EQ(net.MinDeliveryLatency(), Millis(8));
}

TEST(HorizonTest, MatchesMinCrossRegionLatencyOnPaperGeo) {
  Simulator sim;
  // One replica per region, five regions: no intra-region pair exists, so
  // the minimum is the cheapest inter-region one-way (London <-> Zurich).
  Topology topo = Topology::Geo(5, 5);
  Network net(&sim, 5);
  topo.Apply(&net);
  SimTime min_pair = INT64_MAX;
  for (uint32_t a = 0; a < 5; ++a) {
    for (uint32_t b = 0; b < 5; ++b) {
      if (a != b) min_pair = std::min(min_pair, Topology::RegionOneWay(a, b));
    }
  }
  EXPECT_EQ(net.MinDeliveryLatency(), min_pair);
  EXPECT_EQ(min_pair, Topology::RegionOneWay(sim::kLondon, sim::kZurich));
}

TEST(HorizonTest, SerializationFloorRespondsToBandwidth) {
  Simulator sim;
  NetworkConfig slow_cfg;
  slow_cfg.bandwidth_bytes_per_us = 1.0;  // 1 MB/s: floor = kMinWireBytes us
  Network slow(&sim, 2, slow_cfg);
  NetworkConfig fast_cfg;
  fast_cfg.bandwidth_bytes_per_us = 200000.0;  // 200 GB/s: floor rounds to 0
  Network fast(&sim, 2, fast_cfg);

  EXPECT_EQ(slow.SerializationFloor(), static_cast<SimTime>(sim::kMinWireBytes));
  EXPECT_EQ(fast.SerializationFloor(), 0);
  // The window shrinks toward the pure link delay as bandwidth grows: the
  // guaranteed egress-serialization slack disappears.
  EXPECT_LT(fast.MinDeliveryLatency(), slow.MinDeliveryLatency());
  EXPECT_EQ(slow.MinDeliveryLatency(),
            slow.latency(0, 1) + static_cast<SimTime>(sim::kMinWireBytes));
}

TEST(HorizonTest, SingleNodeHasNoCrossTraffic) {
  Simulator sim;
  Network net(&sim, 1);
  EXPECT_EQ(net.MinDeliveryLatency(), Network::kNoCrossTraffic);
}

// --- experiment-level auto window -------------------------------------------

ExperimentConfig TinyConfig() {
  ExperimentConfig cfg;
  cfg.n = 4;
  cfg.batch_size = 20;
  cfg.duration = Millis(30);
  cfg.warmup = Millis(10);
  cfg.seed = 7;
  return cfg;
}

TEST(HorizonTest, AutoWindowOnLanIsTheLanLatency) {
  ExperimentConfig cfg = TinyConfig();
  cfg.sim_jobs = 4;
  Experiment exp(cfg);
  exp.Setup();
  // LAN one-way = 0.4 ms; the serialization floor rounds to 0 at 2 GB/s and
  // the client hop equals the same intra-region latency.
  EXPECT_EQ(exp.simulator().lookahead(), Millis(0.4));
}

TEST(HorizonTest, ClientResponseHopBoundsTheWindow) {
  ExperimentConfig cfg = TinyConfig();
  cfg.n = 2;
  cfg.sim_jobs = 2;
  // One replica per region: replica<->replica traffic needs >= 100 ms
  // (NV<->HK), but the NV clients reach replica 0 in 0.4 ms — the response
  // hop is the binding constraint.
  cfg.topology = Topology::Geo(2, 2);
  Experiment exp(cfg);
  exp.Setup();
  EXPECT_EQ(exp.simulator().lookahead(), Millis(0.4));
}

// A zero-delay link leaves no safe horizon: the run gets no executor and
// takes exactly the serial path.
TEST(HorizonTest, ZeroDelayLinkRunsSerially) {
  ExperimentConfig cfg = TinyConfig();
  cfg.sim_jobs = 4;
  cfg.topology = Topology::Lan(cfg.n, /*one_way=*/0);
  Experiment exp(cfg);
  exp.Setup();
  EXPECT_EQ(exp.simulator().jobs(), 1);
  EXPECT_EQ(exp.simulator().lookahead(), 0);
}

// An explicit window is an upper bound on the derived horizon: narrower
// windows are taken as given, wider ones are capped to it.
TEST(HorizonTest, ExplicitWindowCapsHorizon) {
  ExperimentConfig cfg = TinyConfig();
  cfg.sim_jobs = 4;
  cfg.lookahead = {LookaheadMode::kWindow, 1234};
  {
    Experiment exp(cfg);
    exp.Setup();
    EXPECT_EQ(exp.simulator().lookahead(), Millis(0.4));  // the LAN horizon
  }
  cfg.lookahead = {LookaheadMode::kWindow, 100};
  {
    Experiment exp(cfg);
    exp.Setup();
    EXPECT_EQ(exp.simulator().lookahead(), 100);
  }
  // A window of 1 us leaves nothing to overlap: serial path, no executor.
  cfg.lookahead = {LookaheadMode::kWindow, 1};
  {
    Experiment exp(cfg);
    exp.Setup();
    EXPECT_EQ(exp.simulator().jobs(), 1);
  }
}

// A window wider than the safe horizon is capped to it, so the run matches
// the serial loop instead of aborting on the first cross-shard event that
// lands inside the window.
TEST(HorizonTest, WindowWiderThanHorizonMatchesSerial) {
  ExperimentConfig cfg;
  cfg.n = 4;
  cfg.duration = Millis(50);
  cfg.warmup = Millis(10);
  cfg.delta = Millis(1);
  const ExperimentResult serial = RunExperiment(cfg);
  cfg.sim_jobs = 4;
  cfg.lookahead = {LookaheadMode::kWindow, 5000};
  Experiment exp(cfg);
  ExpectSameResult(exp.Run(), serial);
  EXPECT_EQ(exp.simulator().jobs(), 4);
  EXPECT_EQ(exp.simulator().lookahead(), Millis(0.4));
}

TEST(HorizonTest, ParseLookaheadRoundTrips) {
  LookaheadSpec spec;
  EXPECT_TRUE(ParseLookahead("auto", &spec));
  EXPECT_EQ(spec.mode, LookaheadMode::kAuto);
  EXPECT_TRUE(ParseLookahead("250", &spec));
  EXPECT_EQ(spec.mode, LookaheadMode::kWindow);
  EXPECT_EQ(spec.window, 250);
  EXPECT_EQ(FormatLookahead(spec), "250");
  // --sim-jobs=1 is the one way to run serially.
  EXPECT_FALSE(ParseLookahead("off", &spec));
  EXPECT_FALSE(ParseLookahead("0", &spec));
  EXPECT_FALSE(ParseLookahead("", &spec));
  EXPECT_FALSE(ParseLookahead("fast", &spec));
  EXPECT_FALSE(ParseLookahead("-3", &spec));
  EXPECT_FALSE(ParseLookahead("12ms", &spec));
  // Strict digits (common/parse.h): no sign, no whitespace, no overflow.
  EXPECT_FALSE(ParseLookahead("+5", &spec));
  EXPECT_FALSE(ParseLookahead(" 5", &spec));
  EXPECT_FALSE(ParseLookahead("99999999999999999999", &spec));
}

// --- window engagement ------------------------------------------------------

// Runs `kEvents` events at distinct consecutive timestamps (one per shard)
// and reports the peak number simultaneously in flight. Each event waits
// briefly for the others, so overlap is observed whenever the executor
// allows it: the serial loop can never overlap distinct timestamps; a
// lookahead window covering all of them must.
int PeakCrossTimestampOverlap(Simulator& sim, int events, int wait_ms = 5000) {
  std::mutex mu;
  std::condition_variable cv;
  int in_flight = 0;
  int peak = 0;
  for (int i = 0; i < events; ++i) {
    sim.AtShard(10 + i, static_cast<sim::ShardId>(i), [&, events, wait_ms] {
      std::unique_lock<std::mutex> lk(mu);
      ++in_flight;
      peak = std::max(peak, in_flight);
      cv.notify_all();
      // Wait on the monotone peak, so the first full overlap releases
      // everyone and a non-overlapping executor only pays one timeout.
      cv.wait_for(lk, std::chrono::milliseconds(wait_ms),
                  [&] { return peak == events; });
      --in_flight;
    });
  }
  sim.Run();
  return peak;
}

// The contract makes lookahead invisible in the output, so prove it engages
// through timing structure instead.
TEST(LookaheadWindowTest, OverlapsEventsAcrossTimestamps) {
  constexpr int kEvents = 3;
  Simulator sim;
  sim.SetJobs(kEvents + 1);
  sim.SetLookahead(100);
  EXPECT_EQ(PeakCrossTimestampOverlap(sim, kEvents), kEvents)
      << "events at t=10,11,12 never ran concurrently: the lookahead window "
         "did not engage";
  EXPECT_EQ(sim.EventsProcessed(), static_cast<uint64_t>(kEvents));
  EXPECT_EQ(sim.Now(), 12);
}

// A finite event cap sends the run to the serial loop (exact serial
// truncation), so distinct timestamps never overlap. Each event's
// rendezvous times out — keep the count small so the test stays fast.
TEST(LookaheadWindowTest, EventCapDisablesWindows) {
  Simulator sim;
  sim.SetJobs(3);
  sim.SetLookahead(100);
  sim.SetEventCap(1000);
  EXPECT_EQ(PeakCrossTimestampOverlap(sim, 2, /*wait_ms=*/200), 1)
      << "capped runs must run serially";
  EXPECT_EQ(sim.EventsProcessed(), 2u);
}

// --- cap-hit visibility -----------------------------------------------------

// Event-cap truncation must be visible in the human-readable tables, not
// just the event_cap_hit CSV column.
TEST(EventCapVisibilityTest, TablesWarnWhenAPointHitsTheCap) {
  ScenarioSpec spec;
  spec.name = "cap_probe";
  spec.title = "cap probe";
  spec.row_name = "x";
  spec.base = TinyConfig();
  spec.base.event_cap = 200;  // trips immediately
  spec.rows.push_back({"only", nullptr});
  spec.metrics = {ThroughputMetric()};
  spec.mode = RunMode::kSingle;

  SweepRunner runner(1);
  const SweepOutcome outcome = runner.Run(spec);
  ASSERT_EQ(outcome.results.size(), 1u);
  EXPECT_TRUE(outcome.results[0].event_cap_hit);
  std::ostringstream os;
  EmitTables(outcome, os);
  EXPECT_NE(os.str().find("hit the simulator event cap"), std::string::npos)
      << os.str();
}

}  // namespace
}  // namespace hotstuff1
