// Client population, sharded into per-client-group domains. Two traffic
// models share the same acceptance machinery:
//
//   * closed loop (default, paper fidelity): each virtual client keeps one
//     transaction outstanding; on acceptance it immediately submits the
//     next. Offered load self-regulates to service capacity, which is what
//     the paper's saturation measurements assume (§7 Metrics).
//   * open loop (ArrivalConfig, kind != kClosedLoop): transactions arrive
//     from a per-group arrival process (Poisson / bursty / diurnal / flash
//     crowd) at a configured offered load, attributed to clients drawn
//     lazily from a population that can be millions strong — there is no
//     per-client record, so the heap footprint is a function of traffic,
//     never of population (tests/client_alloc_test.cc pins this).
//
// Acceptance follows the paper's matching-quorum rules (§7 Metrics):
//   * f+1 matching committed responses (HotStuff / HotStuff-2), or
//   * n-f matching responses for speculative protocols (HotStuff-1), where
//     committed responses also count towards the n-f quorum.
// Responses match when (transaction, execution result, executed block) agree
// - the Zyzzyva-style rule that prevents combining votes across views that
// the prefix-speculation dilemma requires (§3, Appendix A.1).
//
// Transactions stuck in orphaned blocks are re-submitted after a timeout,
// keeping their original submit time for latency accounting. A retried
// transaction whose original copy is accepted while the retry still sits in
// the submission queue may be executed twice (exactly like a real client's
// duplicate retry); the client records the acceptance once — the stale
// copy's responses miss the (group, slot, generation) lookup and are
// ignored.
//
// --- Sharding model (see docs/ARCHITECTURE.md) -------------------------------
// The pool is split into G groups (ClientPoolConfig::groups). Each group owns
// an event shard (ClientGroupShard(g)), its own RNG streams, retry sweeper,
// slot storage, tallies, and statistics, so response processing for distinct
// groups runs concurrently under a parallel executor. Only the *submission
// queue* (plus the per-group drawn-id logs feeding the sweepers) remains a
// shared serial domain: DrawBatch (called synchronously from replica
// events) and every enqueue path gate on Simulator::SyncShared, while the
// tally/accept hot path never does. Results stay byte-identical at any
// --jobs x --sim-jobs x --lookahead because every shared-domain access is
// gated and every group-local access is ordered by its shard's event chain.

#ifndef HOTSTUFF1_CLIENT_CLIENT_POOL_H_
#define HOTSTUFF1_CLIENT_CLIENT_POOL_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "client/arrival.h"
#include "common/random.h"
#include "common/replica_set.h"
#include "consensus/mempool.h"
#include "consensus/metrics.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace hotstuff1 {

class InvariantOracle;  // runtime/oracle.h

/// Client-group shards live in a reserved band well above any replica shard
/// and below kShardSerial (0xffffffff, the barrier). Group g's events run on
/// ClientGroupShard(g); kShardClients names group 0 (the whole pool when
/// groups == 1, the historical single-shard layout).
inline constexpr sim::ShardId kShardClientGroupBase = 0xfffe0000u;
inline constexpr uint32_t kMaxClientGroups = 1024;
inline constexpr sim::ShardId ClientGroupShard(uint32_t group) {
  return kShardClientGroupBase + group;
}
inline constexpr sim::ShardId kShardClients = kShardClientGroupBase;

/// Transaction ids encode their owning group and storage slot, so any id can
/// be routed and resolved without a hash lookup or any shared state:
/// bits 63..54 group (10), 53..32 slot index (22), 31..0 generation. The
/// generation is bumped when a slot is freed, so responses for an already-
/// accepted transaction miss cleanly.
inline constexpr uint32_t kClientSlotBits = 22;
inline constexpr uint32_t kMaxSlotsPerGroup = 1u << kClientSlotBits;
inline constexpr uint64_t MakeClientTxnId(uint32_t group, uint32_t slot,
                                          uint32_t generation) {
  return (static_cast<uint64_t>(group) << (32 + kClientSlotBits)) |
         (static_cast<uint64_t>(slot) << 32) | generation;
}
inline constexpr uint32_t ClientTxnGroup(uint64_t id) {
  return static_cast<uint32_t>(id >> (32 + kClientSlotBits));
}
inline constexpr uint32_t ClientTxnSlot(uint64_t id) {
  return static_cast<uint32_t>(id >> 32) & (kMaxSlotsPerGroup - 1);
}
inline constexpr uint32_t ClientTxnGeneration(uint64_t id) {
  return static_cast<uint32_t>(id);
}

struct ClientPoolConfig {
  uint32_t num_clients = 800;
  /// Client-group shard count (1..kMaxClientGroups). groups == 1 reproduces
  /// the historical single-shard pool exactly.
  uint32_t groups = 1;
  /// Traffic model; kClosedLoop keeps the paper-fidelity closed loop.
  ArrivalConfig arrival;
  /// Committed-response threshold (f+1).
  uint32_t quorum_commit = 2;
  /// Speculative threshold (n-f); 0 disables speculative acceptance.
  uint32_t quorum_speculative = 0;
  /// Retry period for transactions lost in orphaned blocks.
  SimTime resubmit_timeout = Millis(250);
  uint64_t seed = 7;
  /// Record (txn id, block hash) for every acceptance; used by client-safety
  /// property tests (Cor. B.10).
  bool track_accepted = false;
};

/// Threading: the submission queue (and the drawn-id logs) form the single
/// shared domain — every path that touches them (DrawBatch, all enqueues,
/// the sweepers) gates on Simulator::SyncShared. Everything else (slots,
/// tallies, latency samples, counters) is group-local and runs on the
/// group's own shard without gating.
class ClientPool : public TransactionSource, public ResponseSink {
 public:
  /// `latency_to_replica[r]` is the one-way client<->replica delay (clients
  /// sit in one region; the paper places them in North Virginia).
  ClientPool(sim::Simulator* sim, const Workload* workload, ClientPoolConfig config,
             std::vector<SimTime> latency_to_replica);

  /// Closed loop: submits every client's first transaction. Open loop:
  /// starts each group's arrival chain. Either way, starts the per-group
  /// retry sweepers.
  void Start();

  /// Attaches the online invariant oracle (null = disabled): every client
  /// acceptance is reported and checked against the global commit lattice —
  /// an accepted block that conflicts with what any correct replica commits
  /// at its height is a Cor. B.10 violation, flagged the moment either side
  /// lands. (The bounded in-flight tail — accepted, not yet committed, not
  /// contradicted — is inherently unjudgeable online; the end-of-run
  /// property tests cover it with time cutoffs.)
  void SetOracle(InvariantOracle* oracle) { oracle_ = oracle; }

  // --- TransactionSource ------------------------------------------------------
  std::vector<Transaction> DrawBatch(ReplicaId leader, size_t max,
                                     SimTime now) override;

  // --- ResponseSink ------------------------------------------------------------
  void OnBlockResponse(ReplicaId from, const BlockPtr& block,
                       const std::vector<uint64_t>& results, bool speculative,
                       SimTime send_time) override;

  /// Conservative lower bound on the replica->client response hop, the one
  /// cross-shard path that bypasses the network's bandwidth model. Feeds the
  /// lookahead horizon next to Network::MinDeliveryLatency. Cached at
  /// construction — the latency table never changes afterwards.
  SimTime MinResponseLatency() const { return min_response_latency_; }

  // --- measurement -------------------------------------------------------------
  /// Clears latency samples and acceptance counters (warmup boundary).
  void ResetStats();
  uint64_t accepted() const;
  uint64_t accepted_speculative() const;
  uint64_t resubmissions() const;
  /// Transactions submitted but not yet drawn by any leader. Open-loop runs
  /// past the knee grow this without bound; closed-loop runs keep it within
  /// the client population. Read outside the event loop (end of run).
  uint64_t backlog() const { return queue_.size(); }
  /// Merged latency samples, groups concatenated in index order (a
  /// deterministic order, so aggregate statistics are executor-independent).
  LatencyRecorder latencies() const;

  struct AcceptedRecord {
    uint64_t txn_id;
    Hash256 block_hash;  // block whose responses formed the quorum
    bool speculative;
    SimTime time;
  };
  /// Merged acceptance records, groups concatenated in index order (within a
  /// group, acceptance order).
  std::vector<AcceptedRecord> accepted_records() const;

 private:
  struct ResponseTally {
    Hash256 block_hash;
    uint64_t result = 0;
    ReplicaSet spec_mask;    // replicas whose response counts as a commit-vote
    ReplicaSet commit_mask;  // replicas reporting a committed execution
  };

  /// One in-flight transaction, addressed by (group, slot index). Freed
  /// slots keep their tally capacity and go on the group's free list, so a
  /// steady-state pool allocates nothing per transaction lifecycle beyond
  /// the transaction payload itself.
  struct Slot {
    Transaction txn;
    uint64_t client = 0;
    SimTime first_submit = 0;
    SimTime last_enqueue = 0;
    uint32_t generation = 1;
    bool live = false;
    bool drawn = false;  // sweeper has observed a leader draw this txn
    std::vector<ResponseTally> tallies;  // usually exactly one entry
  };

  struct Group {
    uint32_t index = 0;
    Rng workload_rng;        // transaction content draws
    Rng client_rng;          // open loop: lazy client-label draws
    std::optional<ArrivalSequence> arrival;
    std::vector<Slot> slots;
    std::vector<uint32_t> free_slots;
    // Shared domain (gated): ids drawn by leaders since the last sweep.
    std::vector<uint64_t> drawn_log;
    uint64_t accepted = 0;
    uint64_t accepted_speculative = 0;
    uint64_t resubmissions = 0;
    LatencyRecorder latencies;
    std::vector<AcceptedRecord> records;

    Group() : workload_rng(0), client_rng(0) {}
  };

  /// A queued submission owns a copy of the transaction, so DrawBatch reads
  /// only shared-domain state and never touches group-local slots.
  struct QueueEntry {
    Transaction txn;
    SimTime enqueue_time = 0;
  };

  uint32_t GroupOfClient(uint64_t client) const {
    return static_cast<uint32_t>(client % config_.groups);
  }
  Slot& AllocSlot(Group& group, uint64_t* id);
  void FreeSlot(Group& group, uint64_t id);
  /// Live slot for `id`, or nullptr when the id is stale (already accepted).
  Slot* FindSlot(Group& group, uint64_t id);

  /// Enqueues a fresh transaction for `client` in a new slot of `group`:
  /// the slot is allocated before the workload draw. Callers gate first.
  void Submit(Group& group, uint64_t client, SimTime now);
  void SubmitFresh(uint64_t client);           // closed loop (gates)
  void ArrivalTick(uint32_t group);            // open loop (gates)
  void Process(uint32_t group, ReplicaId from, const BlockPtr& block,
               const std::vector<uint64_t>& results, bool speculative);
  void Accept(Group& group, uint64_t id, Slot& slot, const Hash256& block_hash,
              bool speculative);
  void Sweep(uint32_t group);  // gates (drawn log + re-enqueues)

  sim::Simulator* sim_;
  const Workload* workload_;
  ClientPoolConfig config_;
  std::vector<SimTime> latency_;
  SimTime min_response_latency_ = 0;
  InvariantOracle* oracle_ = nullptr;

  std::vector<std::unique_ptr<Group>> groups_;
  std::deque<QueueEntry> queue_;  // shared domain: FIFO of waiting submissions
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_CLIENT_CLIENT_POOL_H_
