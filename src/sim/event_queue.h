// The simulator's scheduling core: a chunked event arena (flat records, free
// list, stable addresses) and a binary min-heap of 24-byte handles keyed on
// (time, seq).
//
// Ordering contract (the determinism-critical part): Pop returns handles in
// strictly ascending (time, seq). Seqs are unique, so the order is total and
// does not depend on the heap's internal layout: the same pushes pop in the
// same order on every run, serial or windowed.
//
// The heap itself needs nothing more, but the simulator keeps one more
// promise and Push checks it, so a scheduling bug fails loudly instead of
// silently running an event in the past:
//
//   no-past-push: every Push happens at time >= the latest popped time.
//
// Serial and window execution clamp scheduling to the executing event's own
// time, and window commits only push at or beyond the executed horizon. Peek
// does not raise that floor (a peeked-but-unpopped event must not constrain
// later pushes, see Simulator::RunUntil).

#ifndef HOTSTUFF1_SIM_EVENT_QUEUE_H_
#define HOTSTUFF1_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/inline_fn.h"
#include "common/logging.h"
#include "common/units.h"

namespace hotstuff1::sim {

/// Shard affinity of an event. Components partition their per-node state by
/// shard: an event tagged with shard S may mutate only state owned by S (plus
/// gated shared domains — see Simulator::SyncShared). The parallel executor
/// runs one shard's events strictly in sequence order and different shards
/// concurrently; in single-threaded runs the tag is ignored.
using ShardId = uint32_t;

/// Events with no declared affinity. Under a parallel executor these act as
/// full barriers (everything before completes first, nothing after starts
/// until they finish), so untagged events are always safe — just slow.
inline constexpr ShardId kShardSerial = 0xffffffffu;

/// One pending event's payload. The ordering key (time, seq) lives in the
/// queue's handles, so queue operations never touch this (cache-line-sized)
/// record until the event is actually popped or executed.
struct EventRecord {
  ShardId shard = kShardSerial;
  InlineFn cb;
};

/// \brief Chunked slab of EventRecords with a free list.
///
/// Alloc/Free are O(1) and allocate from the heap only when every previously
/// created slot is live (then one fixed-size chunk is added) — the steady
/// state of an event loop recycles slots with zero allocator traffic.
/// Records have stable addresses: callbacks run in place while nested
/// scheduling grows the arena.
class EventArena {
 public:
  static constexpr uint32_t kChunkShift = 9;  // 512 records per chunk
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;

  uint32_t Alloc(ShardId shard, InlineFn&& cb) {
    if (free_.empty()) Grow();
    const uint32_t idx = free_.back();
    free_.pop_back();
    EventRecord& rec = Get(idx);
    rec.shard = shard;
    rec.cb = std::move(cb);
    return idx;
  }

  EventRecord& Get(uint32_t idx) {
    return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
  }

  void Free(uint32_t idx) {
    Get(idx).cb = nullptr;
    free_.push_back(idx);
  }

 private:
  void Grow();

  std::vector<std::unique_ptr<EventRecord[]>> chunks_;
  std::vector<uint32_t> free_;
};

/// An event's position in the queue: its ordering key plus its arena slot.
struct EventHandle {
  SimTime time = 0;
  uint64_t seq = 0;
  uint32_t idx = 0;
};

/// \brief Binary min-heap of EventHandles ordered by (time, seq). Owned by
/// exactly one Simulator and driven from one thread at a time (the executor
/// pops a window before going wide).
class EventQueue {
 public:
  /// Inserts (t, seq) -> idx. Requires t >= every previously popped time
  /// (no-past-push, checked) and a seq that no other handle carries.
  void Push(SimTime t, uint64_t seq, uint32_t idx) {
    HS1_CHECK_GE(t, floor_);
    heap_.push_back(EventHandle{t, seq, idx});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Writes the smallest key into *out without removing it; false when
  /// empty.
  bool Peek(EventHandle* out) const {
    if (heap_.empty()) return false;
    *out = heap_.front();
    return true;
  }

  /// Removes and returns the smallest key. Precondition: !empty().
  EventHandle Pop() {
    HS1_CHECK(!heap_.empty());
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const EventHandle h = heap_.back();
    heap_.pop_back();
    floor_ = h.time;
    return h;
  }

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

 private:
  struct Later {
    bool operator()(const EventHandle& a, const EventHandle& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::vector<EventHandle> heap_;  // std heap order under Later
  SimTime floor_ = 0;              // latest popped time
};

}  // namespace hotstuff1::sim

#endif  // HOTSTUFF1_SIM_EVENT_QUEUE_H_
