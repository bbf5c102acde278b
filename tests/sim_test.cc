// Discrete-event simulator and network model tests: event ordering, timers,
// latency/bandwidth/CPU accounting, fault filters, topologies.

#include <gtest/gtest.h>

#include <vector>

#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/topology.h"

namespace hotstuff1::sim {
namespace {

// --- Simulator ------------------------------------------------------------------

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.After(30, [&] { order.push_back(3); });
  sim.After(10, [&] { order.push_back(1); });
  sim.After(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
  EXPECT_EQ(sim.EventsProcessed(), 3u);
}

TEST(SimulatorTest, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.After(5, [&] { order.push_back(1); });
  sim.After(5, [&] { order.push_back(2); });
  sim.After(5, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, NestedSchedulingFromCallbacks) {
  Simulator sim;
  std::vector<SimTime> fired;
  sim.After(10, [&] {
    fired.push_back(sim.Now());
    sim.After(5, [&] { fired.push_back(sim.Now()); });
  });
  sim.Run();
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 15}));
}

TEST(SimulatorTest, PastEventsClampToNow) {
  Simulator sim;
  sim.After(10, [] {});
  sim.Run();
  SimTime fired_at = -1;
  sim.At(3, [&] { fired_at = sim.Now(); });  // 3 < now=10
  sim.Run();
  EXPECT_EQ(fired_at, 10);
}

TEST(SimulatorTest, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  int count = 0;
  sim.At(100, [&] { ++count; });
  sim.At(300, [&] { ++count; });
  sim.RunUntil(200);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.Now(), 200);
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.RunUntil(400);
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, EventCapStopsRunaway) {
  Simulator sim;
  sim.SetEventCap(100);
  std::function<void()> loop = [&] { sim.After(1, loop); };
  sim.After(1, loop);
  sim.Run();
  EXPECT_EQ(sim.EventsProcessed(), 100u);
}

// --- Network --------------------------------------------------------------------

struct TestMsg : NetMessage {
  explicit TestMsg(int v, size_t size = 64) : value(v), size_(size) {}
  int value;
  size_t size_;
  size_t WireSize() const override { return size_; }
};

struct Recorder {
  std::vector<std::pair<SimTime, int>> events;
};

NetworkConfig FastConfig() {
  NetworkConfig cfg;
  cfg.default_latency = 100;  // 100 us
  cfg.bandwidth_bytes_per_us = 1000;
  return cfg;
}

TEST(NetworkTest, PointToPointLatency) {
  Simulator sim;
  Network net(&sim, 2, FastConfig());
  Recorder rec;
  net.SetHandler(1, [&](NodeId, const NetMessagePtr& m) {
    rec.events.emplace_back(sim.Now(), static_cast<const TestMsg*>(m.get())->value);
  });
  net.Send(0, 1, std::make_shared<TestMsg>(7, 1000));
  sim.Run();
  ASSERT_EQ(rec.events.size(), 1u);
  // 1000 bytes / 1000 B/us = 1us serialization + 100us latency.
  EXPECT_EQ(rec.events[0].first, 101);
  EXPECT_EQ(rec.events[0].second, 7);
}

TEST(NetworkTest, EgressBandwidthSerializesBroadcast) {
  Simulator sim;
  NetworkConfig cfg = FastConfig();
  cfg.bandwidth_bytes_per_us = 100;  // 10us per 1000-byte message
  Network net(&sim, 4, cfg);
  std::vector<SimTime> arrivals;
  for (NodeId i = 1; i < 4; ++i) {
    net.SetHandler(i, [&](NodeId, const NetMessagePtr&) {
      arrivals.push_back(sim.Now());
    });
  }
  net.Broadcast(0, std::make_shared<TestMsg>(1, 1000), /*include_self=*/false);
  sim.Run();
  ASSERT_EQ(arrivals.size(), 3u);
  // Copies leave the egress back to back: arrivals at 110, 120, 130.
  EXPECT_EQ(arrivals[0], 110);
  EXPECT_EQ(arrivals[1], 120);
  EXPECT_EQ(arrivals[2], 130);
}

TEST(NetworkTest, SelfDeliveryUsesLoopback) {
  Simulator sim;
  Network net(&sim, 2, FastConfig());
  SimTime arrival = -1;
  net.SetHandler(0, [&](NodeId, const NetMessagePtr&) { arrival = sim.Now(); });
  net.Send(0, 0, std::make_shared<TestMsg>(1, 1'000'000));
  sim.Run();
  EXPECT_EQ(arrival, 1);  // loopback skips egress serialization
}

TEST(NetworkTest, CpuBusyDefersDelivery) {
  Simulator sim;
  Network net(&sim, 2, FastConfig());
  std::vector<SimTime> handled;
  net.SetHandler(1, [&](NodeId, const NetMessagePtr&) {
    handled.push_back(sim.Now());
    net.ConsumeCpu(1, 500);  // handler takes 500us of CPU
  });
  net.Send(0, 1, std::make_shared<TestMsg>(1, 100));
  net.Send(0, 1, std::make_shared<TestMsg>(2, 100));
  sim.Run();
  ASSERT_EQ(handled.size(), 2u);
  // Second message arrives ~100.2us but waits for the CPU to free at ~600.
  EXPECT_GT(handled[1], handled[0] + 490);
}

TEST(NetworkTest, CrashDropsTraffic) {
  Simulator sim;
  Network net(&sim, 3, FastConfig());
  int received = 0;
  net.SetHandler(2, [&](NodeId, const NetMessagePtr&) { ++received; });
  net.Crash(2);
  net.Send(0, 2, std::make_shared<TestMsg>(1));
  sim.Run();
  EXPECT_EQ(received, 0);
  net.Crash(0);
  net.Recover(2);
  net.Send(0, 2, std::make_shared<TestMsg>(2));  // crashed sender
  sim.Run();
  EXPECT_EQ(received, 0);
}

TEST(NetworkTest, ImpairNodeAddsDelayBothDirections) {
  Simulator sim;
  Network net(&sim, 2, FastConfig());
  std::vector<SimTime> arrivals;
  net.SetHandler(0, [&](NodeId, const NetMessagePtr&) { arrivals.push_back(sim.Now()); });
  net.SetHandler(1, [&](NodeId, const NetMessagePtr&) { arrivals.push_back(sim.Now()); });
  net.ImpairNode(1, Millis(5));
  net.Send(0, 1, std::make_shared<TestMsg>(1, 100));  // to impaired
  sim.Run();
  net.Send(1, 0, std::make_shared<TestMsg>(2, 100));  // from impaired
  sim.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_GT(arrivals[0], Millis(5));
  EXPECT_GT(arrivals[1] - arrivals[0], Millis(5));
  net.ClearImpairments();
  arrivals.clear();
  const SimTime sent_at = sim.Now();
  net.Send(0, 1, std::make_shared<TestMsg>(3, 100));
  sim.Run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_LT(arrivals[0] - sent_at, Millis(1));
}

TEST(NetworkTest, DropRuleDiscardsDeterministically) {
  Simulator sim;
  Network net(&sim, 2, FastConfig());
  int received = 0;
  net.SetHandler(1, [&](NodeId, const NetMessagePtr&) { ++received; });
  FaultRule rule;
  rule.from_match.assign(2, true);
  rule.to_match.assign(2, true);
  rule.drop_prob = 1.0;
  const int id = net.AddRule(rule);
  for (int i = 0; i < 10; ++i) net.Send(0, 1, std::make_shared<TestMsg>(i));
  sim.Run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.messages_dropped(), 10u);
  net.RemoveRule(id);
  net.Send(0, 1, std::make_shared<TestMsg>(11));
  sim.Run();
  EXPECT_EQ(received, 1);
}

TEST(NetworkTest, LoopbackIgnoresFaultRulesAndImpairments) {
  // Self-delivery models a replica handing a message to itself in memory; it
  // must not be droppable, delayable, or jitterable by wire-level faults.
  Simulator sim;
  Network net(&sim, 2, FastConfig());
  std::vector<SimTime> arrivals;
  net.SetHandler(0, [&](NodeId, const NetMessagePtr&) {
    arrivals.push_back(sim.Now());
  });
  FaultRule rule;
  rule.from_match.assign(2, true);
  rule.to_match.assign(2, true);
  rule.drop_prob = 1.0;
  rule.extra_delay = Millis(50);
  net.AddRule(rule);
  net.ImpairNode(0, Millis(5));
  net.Send(0, 0, std::make_shared<TestMsg>(1, 100));
  sim.Run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], 1);  // loopback latency only
  EXPECT_EQ(net.messages_dropped(), 0u);
}

TEST(NetworkTest, SelfTrafficDoesNotPerturbFaultRngStreams) {
  // Regression: self-delivery used to run the fault-rule loop, consuming
  // sender-RNG draws and thereby shifting the drop/jitter pattern of
  // unrelated cross-node traffic. Loopback is now exempt from rules and
  // jitter, so the cross-node schedule is byte-identical whether or not
  // self-sends are interleaved.
  auto run = [](bool with_self_sends) {
    Simulator sim;
    NetworkConfig cfg;
    cfg.default_latency = 100;
    cfg.bandwidth_bytes_per_us = 1000;
    Network net(&sim, 2, cfg);
    std::vector<SimTime> arrivals;
    net.SetHandler(0, [](NodeId, const NetMessagePtr&) {});
    net.SetHandler(1, [&](NodeId, const NetMessagePtr&) {
      arrivals.push_back(sim.Now());
    });
    FaultRule rule;
    rule.from_match.assign(2, true);
    rule.to_match.assign(2, true);
    rule.drop_prob = 0.5;
    rule.extra_jitter_frac = 0.3;
    net.AddRule(rule);
    // Sends fire at fixed absolute times so the two runs' send schedules are
    // identical by construction; only RNG consumption could differ.
    for (int i = 0; i < 32; ++i) {
      sim.At(i * 1000, [&net, i, with_self_sends] {
        if (with_self_sends) net.Send(0, 0, std::make_shared<TestMsg>(i, 100));
        net.Send(0, 1, std::make_shared<TestMsg>(i, 100));
      });
    }
    sim.Run();
    return arrivals;
  };
  const std::vector<SimTime> without = run(false);
  EXPECT_FALSE(without.empty());               // drop_prob=0.5 passes some
  EXPECT_LT(without.size(), 32u);              // ... and drops some
  EXPECT_EQ(without, run(true));
}

#if GTEST_HAS_DEATH_TEST
TEST(NetworkDeathTest, SetLatencyRejectsOutOfRangeNode) {
  // Regression: out-of-range ids used to write past the latency matrix.
  Simulator sim;
  Network net(&sim, 2, FastConfig());
  EXPECT_DEATH(net.SetLatency(2, 0, Millis(1)), "vs");
  EXPECT_DEATH(net.SetLatency(0, 2, Millis(1)), "vs");
}

TEST(NetworkDeathTest, SetSymmetricLatencyRejectsOutOfRangeNode) {
  Simulator sim;
  Network net(&sim, 2, FastConfig());
  EXPECT_DEATH(net.SetSymmetricLatency(5, 0, Millis(1)), "vs");
  EXPECT_DEATH(net.SetSymmetricLatency(0, 5, Millis(1)), "vs");
}

TEST(NetworkDeathTest, ImpairNodeRejectsOutOfRangeNode) {
  Simulator sim;
  Network net(&sim, 2, FastConfig());
  EXPECT_DEATH(net.ImpairNode(2, Millis(1)), "vs");
}
#endif  // GTEST_HAS_DEATH_TEST

TEST(NetworkTest, StatsCountMessagesAndBytes) {
  Simulator sim;
  Network net(&sim, 3, FastConfig());
  net.SetHandler(1, [](NodeId, const NetMessagePtr&) {});
  net.SetHandler(2, [](NodeId, const NetMessagePtr&) {});
  net.Send(0, 1, std::make_shared<TestMsg>(1, 100));
  net.Send(0, 2, std::make_shared<TestMsg>(2, 200));
  sim.Run();
  EXPECT_EQ(net.messages_sent(), 2u);
  EXPECT_EQ(net.bytes_sent(), 300u);
}

// --- Topology -------------------------------------------------------------------

TEST(TopologyTest, LanIsUniform) {
  Topology t = Topology::Lan(8, Millis(0.5));
  EXPECT_EQ(t.n, 8u);
  EXPECT_EQ(t.OneWay(0, 7), Millis(0.5));
  EXPECT_EQ(t.OneWay(3, 4), Millis(0.5));
}

TEST(TopologyTest, GeoRoundRobinAssignment) {
  Topology t = Topology::Geo(10, 5);
  EXPECT_EQ(t.region_of[0], 0u);
  EXPECT_EQ(t.region_of[4], 4u);
  EXPECT_EQ(t.region_of[5], 0u);
  // NV <-> Hong Kong is the documented 100ms one-way.
  EXPECT_EQ(t.OneWay(0, 1), Millis(100));
  // Symmetric.
  EXPECT_EQ(t.OneWay(1, 0), t.OneWay(0, 1));
  // Intra-region is LAN-like.
  EXPECT_EQ(t.OneWay(0, 5), Millis(0.4));
}

TEST(TopologyTest, TwoRegionSplit) {
  Topology t = Topology::TwoRegion(31, 10);
  int london = 0;
  for (uint32_t r = 0; r < t.n; ++r) {
    if (t.region_of[r] == 1) ++london;
  }
  EXPECT_EQ(london, 10);
  // First nodes are NV.
  EXPECT_EQ(t.region_of[0], 0u);
  EXPECT_EQ(t.region_of[30], 1u);
  EXPECT_EQ(t.OneWay(0, 30), Topology::RegionOneWay(kNorthVirginia, kLondon));
}

TEST(TopologyTest, ApplyInstallsLatencies) {
  Simulator sim;
  Network net(&sim, 4, FastConfig());
  Topology t = Topology::Geo(4, 2);  // NV, HK alternating
  t.Apply(&net);
  EXPECT_EQ(net.latency(0, 1), Millis(100));
  EXPECT_EQ(net.latency(0, 2), Millis(0.4));
}

TEST(TopologyTest, RegionNames) {
  EXPECT_EQ(Topology::RegionName(kNorthVirginia), "North Virginia");
  EXPECT_EQ(Topology::RegionName(kZurich), "Zurich");
}

}  // namespace
}  // namespace hotstuff1::sim
