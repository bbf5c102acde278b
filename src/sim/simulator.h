// Deterministic discrete-event simulator. All protocol activity is ordered
// by (virtual time, insertion sequence), so a run is a pure function of
// (configuration, seed) — at ANY worker count.
//
// Single-threaded by default. SetJobs(N>1) attaches a ParallelExecutor and
// SetLookahead(W>1) sets its conservative safe horizon: the executor then
// runs the events of each window [t, t+W) concurrently while preserving
// exactly the sequential semantics (see parallel_executor.h for the
// determinism contract and docs/ARCHITECTURE.md for the sharding model).
// Callers must guarantee that no event ever schedules onto a *different*
// shard less than W ahead of its own timestamp (the experiment layer derives
// W from the network's minimum cross-node delivery latency). Without a
// window above 1 us, or with an event cap, every event runs on the serial
// loop even when an executor is attached.
//
// Hot-path storage: pending events live as flat records in an EventArena
// and are ordered by a binary min-heap of 24-byte (time, seq, slot) handles
// (event_queue.h); callbacks are InlineFn (48-byte small-buffer storage).
// Scheduling and executing an event allocates nothing once the arena and
// the heap's vector have grown to the run's peak of pending events —
// tests/event_alloc_test.cc pins that property.

#ifndef HOTSTUFF1_SIM_SIMULATOR_H_
#define HOTSTUFF1_SIM_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.h"
#include "sim/event_queue.h"

namespace hotstuff1::sim {

class ParallelExecutor;

/// \brief Virtual-clock event loop.
///
/// Ownership/threading: one Simulator per Experiment; not copyable. All
/// public methods are called from the thread driving the simulation (or, for
/// At/AtShard/SyncShared, from executor workers while a window is in
/// flight — the executor makes those paths safe). Distinct Simulator
/// instances are fully independent: the sweep runner exploits this to run
/// experiments embarrassingly parallel across threads.
///
/// Determinism invariant: given the same schedule of At/AtShard calls, event
/// execution order — and therefore every observable result — is identical
/// whether events run on the serial loop or on a parallel executor with any
/// worker count. Callbacks must never read wall-clock time, thread ids, or
/// any other source that varies across runs.
class Simulator {
 public:
  /// Scheduled work. Move-only; captures up to 48 bytes stay heap-free
  /// (std::function's 16-byte buffer made every network delivery allocate).
  using Callback = InlineFn;

  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Virtual time of the event the calling thread is executing; outside any
  /// event, the global clock. The distinction matters only under a lookahead
  /// window, where events at different timestamps are in flight at once —
  /// callbacks always see their own timestamp, exactly like the serial loop.
  /// Serial runs (no executor) keep the plain-load fast path.
  SimTime Now() const { return exec_ == nullptr ? now_ : NowInExecutor(); }

  /// Schedules `cb` at absolute virtual time `t` (clamped to now). The event
  /// inherits the shard of the event currently executing (a replica's
  /// self-scheduled continuation stays on the replica's shard); scheduled
  /// from outside any event it is kShardSerial. Without an executor no event
  /// context exists, so the inherited shard is always kShardSerial — the
  /// serial fast path below skips the executor's thread-local lookup.
  void At(SimTime t, Callback cb) {
    if (exec_ == nullptr) {
      if (t < now_) t = now_;
      PushEvent(t, kShardSerial, std::move(cb));
      return;
    }
    AtExec(t, std::move(cb));
  }

  /// Schedules `cb` at `t` with an explicit shard affinity. Use this when the
  /// event belongs to a different shard than the caller (e.g. the network
  /// tags a delivery with the destination node).
  void AtShard(SimTime t, ShardId shard, Callback cb) {
    if (exec_ == nullptr) {
      if (t < now_) t = now_;
      PushEvent(t, shard, std::move(cb));
      return;
    }
    AtShardExec(t, shard, std::move(cb));
  }

  /// Schedules `cb` after `delay` from now (shard-inheriting, like At).
  void After(SimTime delay, Callback cb) { At(Now() + delay, std::move(cb)); }

  /// Schedules `cb` after `delay` on an explicit shard.
  void AfterShard(SimTime delay, ShardId shard, Callback cb) {
    AtShard(Now() + delay, shard, std::move(cb));
  }

  /// Attaches (jobs > 1) or detaches (jobs <= 1) the parallel executor.
  /// Results are byte-identical at any value. Call before Run/RunUntil, not
  /// from inside a callback.
  void SetJobs(int jobs);
  int jobs() const;

  /// Sets the conservative lookahead window, in microseconds of virtual
  /// time. W > 1 lets an attached executor run events within [t, t+W)
  /// concurrently; 0 or 1 (the default) runs every event on the serial loop.
  /// Contract: after this call, no event may schedule onto a different shard
  /// less than W after its own timestamp (checked at runtime).
  /// Byte-identical output at any value. Ignored without an executor; also
  /// ignored while an event cap is set, because exact cap truncation needs
  /// the serial loop's one-event-at-a-time order.
  void SetLookahead(SimTime window);
  SimTime lookahead() const { return lookahead_; }

  /// SetLookahead(window), then an executor of `jobs` workers only where
  /// Run/RunUntil would hand it windows (jobs > 1, window > 1 us, no event
  /// cap; set the cap first). Otherwise no executor exists and the run takes
  /// exactly the serial path of jobs = 1.
  void SetParallelism(int jobs, SimTime window);

  /// Serial-domain gate: when called from a callback during a window,
  /// blocks until every event ordered before the caller has completed, so
  /// accesses to shared (non-sharded) state happen in exact sequence order.
  /// No-op on the serial loop. Components guarding shared mutable state
  /// (e.g. the client pool) call this at every entry point.
  void SyncShared();

  /// Executes the next event (a barrier, or any event of a serial run).
  /// Returns false if the queue is empty or the event cap is reached. Always
  /// single-threaded, even when an executor is attached.
  bool Step();

  /// Runs all events with time <= t, then advances the clock to t.
  void RunUntil(SimTime t);

  /// Runs until no events remain (or the event cap is hit).
  void Run();

  bool Empty() const { return queue_.empty(); }
  size_t PendingEvents() const { return queue_.size(); }
  uint64_t EventsProcessed() const { return events_processed_; }

  /// Safety valve against runaway event storms in buggy configurations.
  void SetEventCap(uint64_t cap) { event_cap_ = cap; }

  /// True once the cap stopped execution with events still pending — the run
  /// was truncated, not drained.
  bool cap_hit() const { return cap_hit_; }

 private:
  friend class ParallelExecutor;

  /// A popped event, fully owned (window hand-off shape; the serial loop
  /// never materializes one — it runs callbacks in the arena slot).
  struct Event {
    SimTime time;
    uint64_t seq;
    ShardId shard;
    Callback cb;
  };

  /// Slow path of Now(): consults the executor's thread-local event context.
  SimTime NowInExecutor() const;

  /// The one rule for when windows run: a window above 1 us and no event
  /// cap (exact cap truncation needs the serial loop's one-at-a-time order).
  bool WindowsAllowed() const { return lookahead_ > 1 && event_cap_ == UINT64_MAX; }

  /// True when Run/RunUntil hand the queue to the executor's windows.
  bool Windowed() const { return exec_ != nullptr && WindowsAllowed(); }

  /// Executor-mode scheduling: shard inheritance, per-event time clamp, and
  /// staging during windows.
  void AtExec(SimTime t, Callback cb);
  void AtShardExec(SimTime t, ShardId shard, Callback cb);

  /// Pushes with a fresh sequence number (no clamp, no staging). Takes the
  /// callback by rvalue reference so the whole scheduling path performs a
  /// single relocation: call site -> arena record.
  void PushEvent(SimTime t, ShardId shard, Callback&& cb) {
    queue_.Push(t, next_seq_++, arena_.Alloc(shard, std::move(cb)));
  }
  /// Pops the front event out of the queue + arena (window path).
  Event PopEvent() {
    const EventHandle h = queue_.Pop();
    EventRecord& rec = arena_.Get(h.idx);
    Event ev{h.time, h.seq, rec.shard, std::move(rec.cb)};
    arena_.Free(h.idx);
    return ev;
  }
  /// Key + shard of the front event without popping; false when empty.
  bool PeekEvent(EventHandle* h, ShardId* shard) {
    if (!queue_.Peek(h)) return false;
    *shard = arena_.Get(h->idx).shard;
    return true;
  }

  EventArena arena_;
  EventQueue queue_;
  SimTime now_ = 0;
  SimTime lookahead_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  uint64_t event_cap_ = UINT64_MAX;
  bool cap_hit_ = false;
  std::unique_ptr<ParallelExecutor> exec_;
};

}  // namespace hotstuff1::sim

#endif  // HOTSTUFF1_SIM_SIMULATOR_H_
