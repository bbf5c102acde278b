// Event-queue order tests: EventQueue must pop keys in exactly the
// (time, seq) order of a std::priority_queue over the same keys — the
// determinism gates (byte-identical CSVs at any --jobs/--lookahead) all
// stand on this. The randomized case interleaves >1e6 operations against
// that reference under the simulator's real usage contract (no-past-push,
// globally ascending seqs); targeted tests pin keys pushed far apart in time
// and a capped run under an attached executor.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <queue>
#include <random>
#include <tuple>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace hotstuff1::sim {
namespace {

// (time, seq, idx); seqs are globally unique so idx never breaks a tie.
using Key = std::tuple<SimTime, uint64_t, uint32_t>;
using RefQueue = std::priority_queue<Key, std::vector<Key>, std::greater<Key>>;

// Virtual-time gap (us) past which a push models a long view timer or a geo
// latency rather than a same-tick or short follow-on.
constexpr SimTime kWideGap = 16384;

void ExpectSameFront(EventQueue& q, const RefQueue& ref) {
  EventHandle h;
  ASSERT_TRUE(q.Peek(&h));
  EXPECT_EQ(h.time, std::get<0>(ref.top()));
  EXPECT_EQ(h.seq, std::get<1>(ref.top()));
  EXPECT_EQ(h.idx, std::get<2>(ref.top()));
}

// Drives `ops` random operations honoring the simulator's contract: every
// push lands at or after the last popped time, seqs increase globally.
// The delta distribution mixes heavy timestamp ties (same-tick broadcast
// arrivals), short timers, spreads up to kWideGap, and far-horizon pushes
// beyond it.
void RunRandomizedEquivalence(uint64_t seed, size_t ops) {
  std::mt19937_64 rng(seed);
  EventQueue q;
  RefQueue ref;
  SimTime last_pop = 0;
  uint64_t next_seq = 0;

  for (size_t op = 0; op < ops; ++op) {
    const bool push = ref.empty() || (rng() % 100) < 55;
    if (push) {
      const uint64_t shape = rng() % 100;
      SimTime delta;
      if (shape < 30) {
        delta = 0;  // duplicate timestamp
      } else if (shape < 85) {
        delta = static_cast<SimTime>(rng() % 128);
      } else if (shape < 97) {
        delta = static_cast<SimTime>(rng() % kWideGap);
      } else {
        delta = kWideGap + static_cast<SimTime>(rng() % 100000);
      }
      const SimTime t = last_pop + delta;
      const uint64_t seq = next_seq++;
      const uint32_t idx = static_cast<uint32_t>(rng());
      q.Push(t, seq, idx);
      ref.emplace(t, seq, idx);
    } else {
      if (rng() % 4 == 0) ExpectSameFront(q, ref);
      const EventHandle h = q.Pop();
      ASSERT_EQ(h.time, std::get<0>(ref.top()));
      ASSERT_EQ(h.seq, std::get<1>(ref.top()));
      ASSERT_EQ(h.idx, std::get<2>(ref.top()));
      ref.pop();
      last_pop = h.time;
    }
    ASSERT_EQ(q.size(), ref.size());
  }
  while (!ref.empty()) {
    const EventHandle h = q.Pop();
    ASSERT_EQ(h.time, std::get<0>(ref.top()));
    ASSERT_EQ(h.seq, std::get<1>(ref.top()));
    ref.pop();
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, RandomizedEquivalenceMillionOps) {
  RunRandomizedEquivalence(/*seed=*/0x5eed1, /*ops=*/1'200'000);
}

TEST(EventQueueTest, RandomizedEquivalenceSecondSeed) {
  RunRandomizedEquivalence(/*seed=*/0xfeedbeef, /*ops=*/300'000);
}

TEST(EventQueueTest, DuplicateTimestampsPopInSeqOrder) {
  EventQueue q;
  for (uint64_t seq = 0; seq < 1000; ++seq) q.Push(42, seq, 1000 - seq);
  for (uint64_t seq = 0; seq < 1000; ++seq) {
    const EventHandle h = q.Pop();
    EXPECT_EQ(h.time, 42);
    EXPECT_EQ(h.seq, seq);
    EXPECT_EQ(h.idx, 1000 - seq);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, PeekNeverAdvancesTheWindow) {
  EventQueue q;
  q.Push(500, 0, 0);
  EventHandle h;
  ASSERT_TRUE(q.Peek(&h));
  EXPECT_EQ(h.time, 500);
  // RunUntil peeks a future event, then the caller may schedule earlier work
  // (still >= the last *popped* time). The peeked key must not have raised
  // the floor.
  q.Push(100, 1, 1);
  EXPECT_EQ(q.Pop().time, 100);
  EXPECT_EQ(q.Pop().time, 500);
}

TEST(EventQueueTest, OlderDistantKeyUndercutsNewerOnes) {
  EventQueue q;
  uint64_t seq = 0;
  q.Push(0, seq++, 0);
  q.Push(20000, seq++, 1);      // more than kWideGap past the floor
  EXPECT_EQ(q.Pop().idx, 0u);
  q.Push(10000, seq++, 2);
  q.Push(10001, seq++, 3);
  EXPECT_EQ(q.Pop().idx, 2u);   // floor -> 10000
  q.Push(21000, seq++, 4);      // pushed after 20000, due after it
  EXPECT_EQ(q.Pop().idx, 3u);
  // The key pushed first, before the floor moved, is still the minimum.
  EXPECT_EQ(q.Pop().idx, 1u);
  EXPECT_EQ(q.Pop().idx, 4u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, SameTimeKeysPushedApartPopInSeqOrder) {
  EventQueue q;
  q.Push(0, 0, 0);
  q.Push(20000, 1, 1);         // more than kWideGap past the floor, seq 1
  q.Push(1, 2, 2);
  q.Push(2, 3, 3);
  EXPECT_EQ(q.Pop().idx, 0u);
  EXPECT_EQ(q.Pop().idx, 2u);  // floor -> 1
  q.Push(20000, 4, 4);         // same time, pushed later, seq 4
  EXPECT_EQ(q.Pop().idx, 3u);
  // Both live at t=20000; the earlier push carries the smaller seq.
  EXPECT_EQ(q.Pop().seq, 1u);
  EXPECT_EQ(q.Pop().seq, 4u);
}

TEST(EventQueueTest, LoneKeyJustInsideTheWideGapIsFound) {
  EventQueue q;
  // Raise the floor to 100, then park the only live key just short of
  // kWideGap past it (16474 - 100 < 16384): it must be found and popped.
  q.Push(100, 0, 0);
  EXPECT_EQ(q.Pop().idx, 0u);
  q.Push(16474, 1, 7);
  EventHandle h;
  ASSERT_TRUE(q.Peek(&h));
  EXPECT_EQ(h.time, 16474);
  EXPECT_EQ(q.Pop().idx, 7u);
  EXPECT_TRUE(q.empty());
}

// --- Simulator-level order pinning -----------------------------------------

TEST(EventQueueSimTest, SerialOrderPinsTimeThenInsertion) {
  Simulator sim;
  std::vector<int> order;
  auto mark = [&](int id) { return [&order, id] { order.push_back(id); }; };
  sim.At(50, mark(0));
  sim.At(10, mark(1));
  sim.At(50, mark(2));           // ties with 0: insertion order
  sim.At(100000, mark(3));       // far horizon
  sim.At(10, mark(4));
  sim.After(0, mark(5));         // now
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{5, 1, 4, 0, 2, 3}));
}

TEST(EventQueueSimTest, NestedSchedulingKeepsAscendingOrder) {
  Simulator sim;
  std::vector<SimTime> fired;
  // Each event schedules two follow-ons; times must come out non-decreasing
  // and the total must be exact.
  struct Spawner {
    Simulator* sim;
    std::vector<SimTime>* fired;
    int depth;
    void operator()() const {
      fired->push_back(sim->Now());
      if (depth == 0) return;
      sim->After(3, Spawner{sim, fired, depth - 1});
      sim->After(17000, Spawner{sim, fired, depth - 1});  // a long timer
    }
  };
  sim.At(0, Spawner{&sim, &fired, 10});
  sim.Run();
  EXPECT_EQ(fired.size(), (1u << 11) - 1);
  for (size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1], fired[i]);
  }
}

TEST(EventQueueSimTest, CapFallbackRepushKeepsOrderUnderExecutor) {
  // A capped run with an executor attached takes the serial loop, so it
  // stops on exactly the serial prefix; lifting the cap resumes the rest in
  // lookahead windows and must produce exactly the serial result. Recording
  // is per shard: events on distinct shards legitimately run concurrently
  // in a window, but each shard's own sequence is fully ordered.
  using PerShard = std::array<std::vector<int>, 4>;
  PerShard serial;
  {
    Simulator sim;
    for (int i = 0; i < 40; ++i) {
      sim.AtShard(7, i % 4, [&serial, i] { serial[i % 4].push_back(i); });
    }
    sim.Run();
  }
  PerShard capped;
  Simulator sim;
  for (int i = 0; i < 40; ++i) {
    sim.AtShard(7, i % 4, [&capped, i] { capped[i % 4].push_back(i); });
  }
  sim.SetJobs(3);
  sim.SetLookahead(100);
  sim.SetEventCap(13);
  sim.Run();
  EXPECT_TRUE(sim.cap_hit());
  EXPECT_EQ(sim.EventsProcessed(), 13u);
  // The executed set is exactly the 13-event serial prefix.
  size_t executed = 0;
  for (const auto& v : capped) executed += v.size();
  EXPECT_EQ(executed, 13u);
  for (int s = 0; s < 4; ++s) {
    for (size_t k = 0; k < capped[s].size(); ++k) {
      EXPECT_EQ(capped[s][k], serial[s][k]);
      EXPECT_LT(capped[s][k], 13);
    }
  }
  sim.SetEventCap(UINT64_MAX);
  sim.Run();
  EXPECT_EQ(capped, serial);
}

}  // namespace
}  // namespace hotstuff1::sim
