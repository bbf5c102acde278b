// Deterministic intra-experiment parallelism: a worker pool that runs the
// events of one conservative lookahead window concurrently while reproducing
// the single-threaded execution byte for byte.
//
// Model
//   * Every event carries a ShardId (simulator.h). Replicas are the natural
//     shards: the network tags each delivery/drain with the destination
//     node, replica continuations inherit their replica's shard, and the
//     client pool runs on its own shards.
//   * The caller guarantees a safe horizon W (Simulator::SetLookahead): no
//     event ever schedules onto a *different* shard less than W microseconds
//     after its own timestamp (the classic conservative-PDES bound; the
//     experiment layer derives W from the network's minimum cross-node
//     delivery latency). A window is then every queued event in [t, t+W),
//     stopping before the first kShardSerial barrier.
//   * One shard's events run strictly in serial order; different shards run
//     concurrently.
//   * Callbacks that must touch shared (cross-shard) state call
//     Simulator::SyncShared(), which blocks until every event the serial loop
//     would have run before the caller has completed — so shared-domain
//     accesses happen in exact serial order, even across timestamps.
//   * Events scheduled inside a window are staged per parent event and
//     committed after the window in the order the serial loop would have
//     assigned sequence numbers, so the queue contents — and all downstream
//     behavior — match the serial path.
//   * Barriers run alone on the serial loop (Simulator::Step). Runs with an
//     event cap or a horizon of 1 us or less never reach the executor:
//     Simulator runs them entirely on that loop, which is exact by
//     construction (serial cap truncation stops at an exact event, which a
//     window that already ran later timestamps could not reproduce).
//
// Determinism argument (why jobs=1 and jobs=N produce identical bytes):
//   1. Same-shard events run one at a time in serial order.
//   2. Cross-shard events only interact through (a) per-node state owned by
//      exactly one shard, (b) SyncShared-gated domains (serial order
//      enforced), (c) staged scheduling (serial-order commit), or (d)
//      immutable state.
//   3. Integer counters that multiple shards logically share are kept
//      per-shard and summed on read (order-independent).
//   Anything outside (1)-(3) must be scheduled as a kShardSerial barrier.
//
// Serial order inside a window
//   Events are totally ordered by a key that reproduces the (time, seq)
//   order the serial loop would execute: popped events keep their queue key;
//   events a shard schedules for itself inside the window ("inline" events —
//   drain callbacks, short timers) sort after every event that already
//   existed at their timestamp, in (parent order, call order) — exactly where
//   the serial loop's fresh sequence numbers would have put them. The commit
//   replays the executed events in key order, assigning global sequence
//   numbers in exactly the order the serial loop would have (inline events
//   burn the sequence number they would have consumed).

#ifndef HOTSTUFF1_SIM_PARALLEL_EXECUTOR_H_
#define HOTSTUFF1_SIM_PARALLEL_EXECUTOR_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sim/simulator.h"

namespace hotstuff1::sim {

/// \brief Lookahead-window executor attached to one Simulator.
///
/// Ownership: created and owned by Simulator::SetJobs; joins its workers on
/// destruction. All public methods except the static context helpers are
/// called by the owning simulator; StageIfInWindow/SyncShared additionally
/// run on worker threads while a window is in flight.
class ParallelExecutor {
 public:
  /// Spawns `jobs - 1` workers; the driving thread participates too, so the
  /// total concurrency is `jobs` (>= 2).
  ParallelExecutor(Simulator* sim, int jobs);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  int jobs() const { return static_cast<int>(threads_.size()) + 1; }

  /// Runs events while the next event's time is <= limit: a barrier on
  /// Simulator::Step, anything else as the first event of a window. Does not
  /// advance the clock past the last executed event. Requires a lookahead
  /// above 1 and no event cap (Simulator::RunUntil checks both).
  void Drain(SimTime limit);

  /// Blocks until every event ordered before the calling event in the
  /// current window has completed. No-op when the calling thread is not
  /// executing a window event.
  void SyncShared();

  /// If the calling thread is executing a window event of `sim`'s executor,
  /// stages the scheduling request for deterministic commit and returns
  /// true; otherwise returns false and the caller pushes directly.
  static bool StageIfInWindow(Simulator* sim, SimTime t, ShardId shard,
                              Simulator::Callback* cb);

  /// Shard of the event the calling thread is executing, or kShardSerial.
  static ShardId InheritedShard();

  /// Virtual time of the event the calling thread is executing for `sim`,
  /// or `fallback` when the thread is not inside one of its events.
  static SimTime EffectiveNow(const Simulator* sim, SimTime fallback);

 private:
  struct WindowEvent;

  struct StagedEvent {
    SimTime time;
    ShardId shard;
    Simulator::Callback cb;
    // Set when the scheduled event ran inside the same window; the replay
    // then only burns the sequence number the serial loop would have used.
    WindowEvent* inline_child = nullptr;
  };

  /// Total order reproducing the serial loop's (time, seq) execution order
  /// across popped and inline events: popped = {time, 0, seq}; inline =
  /// {time, 1, parent key..., call index}. Lexicographic comparison (with
  /// the shorter key first on a common prefix) puts an inline event after
  /// everything that existed at its timestamp when it was scheduled, in
  /// (parent order, call order) — where its fresh sequence number would
  /// have placed it.
  using OrderKey = std::vector<uint64_t>;

  struct WindowEvent {
    SimTime time = 0;
    ShardId shard = kShardSerial;
    Simulator::Callback cb;
    OrderKey key;
    std::vector<StagedEvent> staged;
  };

  struct KeyOrder {
    bool operator()(const WindowEvent* a, const WindowEvent* b) const {
      return a->key < b->key;
    }
  };

  /// The window event the calling thread is executing, if any.
  struct EventContext;
  static thread_local EventContext tls_ctx_;

  /// Pops the serial-order prefix of queued events with time < horizon,
  /// stopping before the first kShardSerial barrier, and derives the inline
  /// ceiling (below which same-shard follow-ons run inside the window).
  void PopWindow(SimTime horizon);
  /// Executes the popped window on the pool + this thread, then commits.
  void RunWindow();
  /// Claims and runs window events until none remain (lock held at entry
  /// and exit; released around each callback).
  void WindowLoopLocked(std::unique_lock<std::mutex>& lk);
  /// Retires a finished event: unlinks it, promotes its shard successor, and
  /// wakes the waiters that can now make progress. Returns the successor
  /// when the caller should run it directly (it is exactly what a minimum
  /// claim would pick next), else nullptr.
  WindowEvent* CompleteWindowEventLocked(WindowEvent* ev);
  void RunWindowEvent(WindowEvent* ev);
  /// Called from a window event's callback (any worker): routes a
  /// scheduling request to an inline window event or to the staged list.
  void StageWindow(WindowEvent* parent, SimTime t, ShardId shard,
                   Simulator::Callback* cb);
  /// Replays executed events in serial-order keys, assigning the global
  /// sequence numbers the serial loop would have and enqueueing every
  /// non-inline staged event; advances the clock and the processed count.
  void CommitWindow();
  void WorkerLoop();

  Simulator* sim_;
  std::vector<std::thread> threads_;

  // Window state (valid while RunWindow is active). Incomplete events are
  // indexed three ways, all in serial-order keys: globally (SyncShared's
  // "am I the minimum" check is O(1) at begin()), per shard (to promote the
  // successor when a head completes), and a ready set holding exactly the
  // unclaimed shard heads (claiming pops its minimum in O(log n)). Inline
  // events register under the lock while their parent runs; they sort after
  // the still-incomplete parent, so they never enter the ready set on
  // registration and the global-minimum predicate stays monotone.
  std::vector<std::unique_ptr<WindowEvent>> win_events_;  // all, owned
  std::set<WindowEvent*, KeyOrder> win_pending_;          // all incomplete
  std::set<WindowEvent*, KeyOrder> win_ready_;            // claimable heads
  std::unordered_map<ShardId, std::set<WindowEvent*, KeyOrder>> win_shard_;
  size_t win_outstanding_ = 0;
  SimTime win_horizon_ = 0;         // cross-shard staging must land >= this
  SimTime win_inline_ceiling_ = 0;  // same-shard staging below runs inline
  bool window_active_ = false;
  uint64_t window_gen_ = 0;
  size_t busy_workers_ = 0;  // workers inside the window loop

  std::mutex mu_;
  std::condition_variable work_cv_;       // window opened / stop
  std::condition_variable done_cv_;       // workers idle
  std::condition_variable win_ready_cv_;  // claimable event added / window end
  std::condition_variable win_min_cv_;    // global minimum retired / window end
  bool stop_ = false;
  bool draining_ = false;  // reentrancy guard
};

}  // namespace hotstuff1::sim

#endif  // HOTSTUFF1_SIM_PARALLEL_EXECUTOR_H_
