// The simulator's scheduling core: a chunked event arena (flat records, free
// list, stable addresses) and a calendar queue over (time, seq) keys.
//
// Why a calendar queue: discrete-event consensus workloads cluster event
// timestamps tightly around "now" (deliveries, drains, zero-delay
// follow-ons, short timers). A binary heap pays O(log n) comparator-driven
// moves of full Event structs per operation; the calendar queue appends into
// a per-microsecond bucket ring in O(1) and pops by scanning a bitmap of
// non-empty buckets. Events beyond the ring's horizon (long view timers,
// geo-latency deliveries) overflow into a small min-heap of flat 24-byte
// handles and migrate into the ring in bulk when the window advances.
//
// Ordering contract (the determinism-critical part): Pop returns live
// handles in strictly ascending (time, seq) — exactly std::priority_queue
// with the old EventLater comparator. This relies on one queue invariant:
//
//   no-past-push: every Push happens at time >= the maximum time ever
//   popped (near_start_).
//
// The simulator guarantees it on every path: serial and window execution
// clamp scheduling to the executing event's own time, and window commits
// only push at or beyond the executed horizon. Push checks it.
//
// In-bucket order relies on a second property: appends into one bucket
// carry ascending seq. Fresh pushes have globally increasing seqs, and
// far->near migration happens only when the ring is empty and drains the
// heap in (time, seq) order. Peek never advances the window (a
// peeked-but-unpopped event must not constrain later pushes, see
// Simulator::RunUntil).

#ifndef HOTSTUFF1_SIM_EVENT_QUEUE_H_
#define HOTSTUFF1_SIM_EVENT_QUEUE_H_

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

/// \brief Calendar queue keyed on (time, seq). See the file comment for the
/// structure and the invariants; owned by exactly one Simulator and driven
/// from one thread at a time (the executor pops rounds before going wide).
class EventQueue {
 public:
  static constexpr size_t kBucketsShift = 14;  // 16384 one-us buckets
  static constexpr size_t kBuckets = size_t{1} << kBucketsShift;
  /// Virtual-time width of the near ring; pushes at or beyond
  /// near_start_ + kSpan overflow into the far heap.
  static constexpr SimTime kSpan = static_cast<SimTime>(kBuckets);

  EventQueue();

  /// Inserts (t, seq) -> idx. Requires t >= every previously popped time
  /// (no-past-push, checked) and seq >= every seq previously pushed at t.
  /// Inline: the common case is one bucket append + a bitmap OR.
  void Push(SimTime t, uint64_t seq, uint32_t idx) {
    HS1_CHECK_GE(t, near_start_);
    ++size_;
    if (cache_valid_ &&
        (t < cache_.time || (t == cache_.time && seq < cache_.seq))) {
      cache_ = EventHandle{t, seq, idx};
      cache_is_far_ = !InNear(t);
    }
    if (InNear(t)) {
      const size_t b = static_cast<size_t>(t) & (kBuckets - 1);
      near_[b].slots.push_back(Slot{seq, idx});
      live_[b >> 6] |= uint64_t{1} << (b & 63);
      ++near_count_;
    } else {
      PushFar(t, seq, idx);
    }
  }

  /// Writes the smallest live key into *out without removing it; false when
  /// empty. Never advances the window.
  bool Peek(EventHandle* out) {
    if (size_ == 0) return false;
    if (!cache_valid_) ComputeMin();
    *out = cache_;
    return true;
  }

  /// Removes and returns the smallest live key. Precondition: !empty().
  EventHandle Pop() {
    HS1_CHECK(size_ > 0);
    if (!cache_valid_) ComputeMin();
    const EventHandle h = cache_;
    cache_valid_ = false;
    if (cache_is_far_) {
      PopFarTop();
    } else {
      const size_t b = static_cast<size_t>(h.time) & (kBuckets - 1);
      Bucket& bk = near_[b];
      if (++bk.head == bk.slots.size()) {
        bk.slots.clear();  // keeps capacity for the next lap of the ring
        bk.head = 0;
        live_[b >> 6] &= ~(uint64_t{1} << (b & 63));
      } else {
        // The bucket still has slots. While a time is in the window its
        // events live only in this bucket, so the next slot (same time, next
        // seq) is the new minimum unless the far top undercuts it — refill
        // the cache and skip the next ComputeMin. Ticks with many same-time
        // events (broadcast arrivals, quorum formation) hit this every pop.
        const Slot& s = bk.slots[bk.head];
        if (far_.empty() || far_.front().time > h.time ||
            (far_.front().time == h.time && far_.front().seq > s.seq)) {
          cache_ = EventHandle{h.time, s.seq, s.idx};
          cache_is_far_ = false;
          cache_valid_ = true;
        }
      }
      --near_count_;
    }
    --size_;
    // The popped key was the global minimum, so this never moves a live key
    // out of the window (no-past-push keeps every live time >= near_start_).
    near_start_ = h.time;
    if (near_count_ == 0 && !far_.empty()) MigrateFar();
    return h;
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

 private:
  struct Slot {
    uint64_t seq;
    uint32_t idx;
  };
  struct Bucket {
    std::vector<Slot> slots;
    uint32_t head = 0;  // slots[head..) are live, ascending seq
  };
  struct FarEntry {
    SimTime time;
    uint64_t seq;
    uint32_t idx;
  };
  struct FarLater {
    bool operator()(const FarEntry& a, const FarEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  bool InNear(SimTime t) const { return t - near_start_ < kSpan; }

  /// Heap-inserts an entry beyond the ring's horizon (cold path).
  void PushFar(SimTime t, uint64_t seq, uint32_t idx);
  /// Heap-removes the far minimum (cold path).
  void PopFarTop();
  /// Ring is empty: moves every now-in-window far entry into it (cold path;
  /// heap drain order keeps per-bucket appends seq-sorted).
  void MigrateFar();

  /// Recomputes cache_ from the ring + far heap. Precondition: size_ > 0.
  void ComputeMin();

  /// First non-empty bucket in ring order starting at `start`, via the
  /// occupancy bitmap. Precondition: near_count_ > 0.
  size_t FindLiveBucket(size_t start) const;

  std::vector<Bucket> near_;             // kBuckets
  std::vector<uint64_t> live_;           // occupancy bitmap, kBuckets bits
  SimTime near_start_ = 0;               // lower bound on every live key
  size_t near_count_ = 0;
  std::vector<FarEntry> far_;            // min-heap under FarLater
  size_t size_ = 0;

  // Cached minimum: filled by Peek/ComputeMin, kept exact by Push (a push
  // below the cached key replaces it), consumed by Pop.
  EventHandle cache_{};
  bool cache_valid_ = false;
  bool cache_is_far_ = false;
};

}  // namespace hotstuff1::sim

#endif  // HOTSTUFF1_SIM_EVENT_QUEUE_H_
