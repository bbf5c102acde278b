// Pins the event loop's allocation-free steady state: once the arena and the
// event heap have grown to the run's peak of pending events, scheduling and
// executing events must not touch the global allocator at all, and a network
// broadcast allocates exactly one block, its std::make_shared message;
// delivery, egress accounting and ingress add nothing. This is enforced by
// replacing operator new/delete for this binary with counting versions and
// checking the count across a measured window.
//
// If this test starts failing, some hot-path capture outgrew InlineFn's
// 48-byte buffer, or a container on the schedule/execute/deliver path lost
// its capacity-reuse property.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <memory>

#include "sim/network.h"
#include "sim/simulator.h"

namespace {

std::atomic<uint64_t> g_allocs{0};

uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace

// Counting overrides for the whole test binary. Every standard flavor is
// covered so no allocation can slip past the counter.
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (n + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t align) {
  return ::operator new(n, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace hotstuff1::sim {
namespace {

// Self-rescheduling timer; the capture (16 bytes, trivially copyable) stays
// in InlineFn's inline buffer with memcpy relocation and no destructor.
struct Tick {
  Simulator* sim;
  uint64_t* budget;
  void operator()() const {
    if (*budget == 0) return;
    --*budget;
    sim->After(16, Tick{sim, budget});
  }
};

TEST(EventAllocTest, TimerRingSteadyStateAllocatesNothing) {
  Simulator sim;
  uint64_t budget = 400'000;
  for (int i = 0; i < 64; ++i) sim.At(0, Tick{&sim, &budget});
  // Warm up: grow the arena and the heap to the 64 pending timers.
  while (budget > 100'000 && sim.Step()) {
  }
  ASSERT_GT(budget, 0u) << "warmup consumed the whole budget";
  const uint64_t before = AllocCount();
  while (budget > 0 && sim.Step()) {
  }
  EXPECT_EQ(AllocCount(), before)
      << "schedule/execute steady state hit the heap";
  sim.Run();
}

struct PingMsg : NetMessage {};

// Broadcast relay with constant in-flight population: each generation, the
// sender's successor (alone) re-broadcasts a fresh message, so every
// generation is one make_shared + n-1 deliveries. Exercises shared_ptr
// fan-out, egress accounting, and the delivery callback path.
struct RelayNet {
  Network* net;
  uint64_t* hops;

  void Install() {
    const NodeId n = net->num_nodes();
    for (NodeId id = 0; id < n; ++id) {
      net->SetHandler(id, [this, id, n](NodeId from, const NetMessagePtr&) {
        if (id != (from + 1) % n || *hops == 0) return;
        --*hops;
        net->Broadcast(id, std::make_shared<PingMsg>(), /*include_self=*/false);
      });
    }
  }
};

TEST(EventAllocTest, BroadcastSteadyStateAllocatesOnlyTheMessage) {
  Simulator sim;
  Network net(&sim, 8);
  uint64_t hops = 30'000;
  RelayNet relay{&net, &hops};
  relay.Install();
  net.Broadcast(0, std::make_shared<PingMsg>(), /*include_self=*/false);
  while (hops > 10'000 && sim.Step()) {
  }
  ASSERT_GT(hops, 0u) << "warmup consumed the whole hop budget";
  const uint64_t hops_before = hops;
  const uint64_t before = AllocCount();
  while (hops > 0 && sim.Step()) {
  }
  // Each hop is one broadcast, and each broadcast one make_shared block.
  EXPECT_EQ(AllocCount() - before, hops_before - hops)
      << "broadcast steady state allocated beyond its messages";
  sim.Run();
}

}  // namespace
}  // namespace hotstuff1::sim
