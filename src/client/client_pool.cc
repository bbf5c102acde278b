#include "client/client_pool.h"

#include <algorithm>
#include <array>

#include "common/logging.h"
#include "runtime/oracle.h"

namespace hotstuff1 {

ClientPool::ClientPool(sim::Simulator* sim, const Workload* workload,
                       ClientPoolConfig config, std::vector<SimTime> latency_to_replica)
    : sim_(sim),
      workload_(workload),
      config_(config),
      latency_(std::move(latency_to_replica)) {
  HS1_CHECK_LE(latency_.size(), ReplicaSet::kCapacity)
      << "committee exceeds ReplicaSet capacity";
  HS1_CHECK_GE(config_.groups, 1u) << "need at least one client group";
  HS1_CHECK_LE(config_.groups, kMaxClientGroups);
  min_response_latency_ = INT64_MAX / 4;
  for (SimTime lat : latency_) {
    min_response_latency_ = std::min(min_response_latency_, lat);
  }
  groups_.reserve(config_.groups);
  for (uint32_t g = 0; g < config_.groups; ++g) {
    auto group = std::make_unique<Group>();
    group->index = g;
    // Group 0 reuses the pool seed verbatim, so a single-group pool draws
    // the exact transaction stream of the historical unsharded pool.
    group->workload_rng.Seed(config_.seed + g * 0x9e3779b97f4a7c15ULL);
    // Client labels come from a separate stream: the label draw must never
    // perturb transaction content, so changing num_clients (a population
    // *label* in open loop) changes nothing but the labels themselves.
    group->client_rng.Seed((config_.seed ^ 0xc11e57a8f00dULL) +
                           g * 0x9e3779b97f4a7c15ULL);
    groups_.push_back(std::move(group));
  }
}

void ClientPool::Start() {
  if (config_.arrival.kind == ArrivalKind::kClosedLoop) {
    for (uint32_t c = 0; c < config_.num_clients; ++c) {
      // Tiny stagger avoids an artificial thundering herd at t=0.
      sim_->AfterShard(static_cast<SimTime>(c % 97),
                       ClientGroupShard(GroupOfClient(c)),
                       [this, c]() { SubmitFresh(c); });
    }
  } else {
    HS1_CHECK(config_.num_clients > 0);
    const double group_rate =
        config_.arrival.offered_load_tps / static_cast<double>(config_.groups);
    for (uint32_t g = 0; g < config_.groups; ++g) {
      Group& group = *groups_[g];
      group.arrival.emplace(config_.arrival, group_rate,
                            (config_.seed * 1000003 + 0x0a2215a7ULL) +
                                g * 0x9e3779b97f4a7c15ULL);
      sim_->AtShard(group.arrival->Next(), ClientGroupShard(g),
                    [this, g]() { ArrivalTick(g); });
    }
  }
  for (uint32_t g = 0; g < config_.groups; ++g) {
    sim_->AfterShard(config_.resubmit_timeout / 2, ClientGroupShard(g),
                     [this, g]() { Sweep(g); });
  }
}

ClientPool::Slot& ClientPool::AllocSlot(Group& group, uint64_t* id) {
  uint32_t idx;
  if (!group.free_slots.empty()) {
    idx = group.free_slots.back();
    group.free_slots.pop_back();
  } else {
    HS1_CHECK_LT(group.slots.size(), kMaxSlotsPerGroup)
        << "client group overflow: > " << kMaxSlotsPerGroup
        << " transactions in flight in one group";
    idx = static_cast<uint32_t>(group.slots.size());
    group.slots.emplace_back();
  }
  Slot& slot = group.slots[idx];
  slot.live = true;
  slot.drawn = false;
  slot.tallies.clear();  // keeps capacity: no per-lifecycle reallocation
  *id = MakeClientTxnId(group.index, idx, slot.generation);
  return slot;
}

void ClientPool::FreeSlot(Group& group, uint64_t id) {
  const uint32_t idx = ClientTxnSlot(id);
  Slot& slot = group.slots[idx];
  slot.live = false;
  ++slot.generation;  // stale ids (responses, queue copies) now miss
  group.free_slots.push_back(idx);
}

ClientPool::Slot* ClientPool::FindSlot(Group& group, uint64_t id) {
  const uint32_t idx = ClientTxnSlot(id);
  if (idx >= group.slots.size()) return nullptr;
  Slot& slot = group.slots[idx];
  if (!slot.live || slot.generation != ClientTxnGeneration(id)) return nullptr;
  return &slot;
}

void ClientPool::Submit(Group& group, uint64_t client, SimTime now) {
  uint64_t id = 0;
  Slot& slot = AllocSlot(group, &id);
  slot.txn = workload_->Generate(&group.workload_rng);
  slot.txn.id = id;
  slot.txn.submit_time = now;
  slot.client = client;
  slot.first_submit = now;
  slot.last_enqueue = now;
  queue_.push_back(QueueEntry{slot.txn, now});
}

void ClientPool::SubmitFresh(uint64_t client) {
  // Enqueueing touches the shared submission queue: gate, so that a replica
  // event earlier in serial order (whose DrawBatch passed its own gate and may
  // still be mutating the queue) has completed before this event touches it.
  // The gate is pairwise: earlier accessors finish before later ones start.
  sim_->SyncShared();
  Submit(*groups_[GroupOfClient(client)], client, sim_->Now());
}

void ClientPool::ArrivalTick(uint32_t g) {
  sim_->SyncShared();  // enqueues below touch the shared queue
  Group& group = *groups_[g];
  const SimTime now = sim_->Now();
  // Drain every arrival that lands on this tick into one event, then
  // schedule the next strictly-future tick on this group's own shard (same
  // shard, so the lookahead window does not constrain the chain).
  SimTime next;
  do {
    Submit(group, group.client_rng.NextBounded(config_.num_clients), now);
    next = group.arrival->Next();
  } while (next <= now);
  sim_->AtShard(next, ClientGroupShard(g), [this, g]() { ArrivalTick(g); });
}

std::vector<Transaction> ClientPool::DrawBatch(ReplicaId leader, size_t max,
                                               SimTime now) {
  // Called synchronously from the proposing replica's event: under a
  // parallel executor, wait for every event earlier in serial order so the
  // queue is read and mutated in exact sequence order. Reads nothing group-local:
  // queue entries carry their own transaction copy, and draws are announced
  // to the owning group through its (gated) drawn log, picked up by the
  // group's sweeper.
  sim_->SyncShared();
  std::vector<Transaction> out;
  const SimTime lat = leader < latency_.size() ? latency_[leader] : 0;
  while (out.size() < max && !queue_.empty()) {
    QueueEntry& front = queue_.front();
    // Request hop: the transaction is visible to this leader only after the
    // client->replica delay.
    if (front.enqueue_time + lat > now) break;
    const uint32_t g = ClientTxnGroup(front.txn.id);
    if (g < config_.groups) groups_[g]->drawn_log.push_back(front.txn.id);
    out.push_back(std::move(front.txn));
    queue_.pop_front();
  }
  return out;
}

void ClientPool::OnBlockResponse(ReplicaId from, const BlockPtr& block,
                                 const std::vector<uint64_t>& results,
                                 bool speculative, SimTime send_time) {
  // Response hop back to the clients. Only immutable state is read here (the
  // replica's event may run concurrently with other shards); all pool
  // mutation happens in scheduled events on the owning groups' shards — one
  // event per group with a transaction in the block, in ascending group
  // order so scheduling sequence numbers are deterministic.
  const SimTime lat = from < latency_.size() ? latency_[from] : 0;
  std::array<uint64_t, kMaxClientGroups / 64> present{};
  for (const Transaction& txn : block->txns()) {
    const uint32_t g = ClientTxnGroup(txn.id);
    if (g < config_.groups) present[g >> 6] |= 1ull << (g & 63);
  }
  for (uint32_t g = 0; g < config_.groups; ++g) {
    if (!(present[g >> 6] & (1ull << (g & 63)))) continue;
    sim_->AtShard(send_time + lat, ClientGroupShard(g),
                  [this, g, from, block, results, speculative]() {
                    Process(g, from, block, results, speculative);
                  });
  }
}

void ClientPool::Process(uint32_t g, ReplicaId from, const BlockPtr& block,
                         const std::vector<uint64_t>& results, bool speculative) {
  // Group-local: tallies and acceptance state belong to this group's shard,
  // so no SyncShared — response processing for distinct groups overlaps
  // under a parallel executor. (The closed-loop resubmission inside Accept
  // gates on its own.)
  // A response from a replica id outside the committee is a wiring bug; it
  // must never alias onto another replica's vote bit (the old `% 64` wrap).
  HS1_CHECK_LT(from, latency_.size()) << "response from unknown replica";
  Group& group = *groups_[g];
  const auto& txns = block->txns();
  for (size_t i = 0; i < txns.size(); ++i) {
    if (ClientTxnGroup(txns[i].id) != g) continue;  // another group's txn
    Slot* slot = FindSlot(group, txns[i].id);
    if (slot == nullptr) continue;  // already accepted (stale id)

    ResponseTally* tally = nullptr;
    for (ResponseTally& t : slot->tallies) {
      if (t.block_hash == block->hash() && t.result == results[i]) {
        tally = &t;
        break;
      }
    }
    if (tally == nullptr) {
      slot->tallies.push_back(ResponseTally{block->hash(), results[i], {}, {}});
      tally = &slot->tallies.back();
    }
    tally->spec_mask.Set(from);  // every response is at least a commit-vote
    if (!speculative) tally->commit_mask.Set(from);

    const uint32_t votes = (tally->spec_mask | tally->commit_mask).Count();
    const uint32_t commits = tally->commit_mask.Count();
    if (commits >= config_.quorum_commit) {
      Accept(group, txns[i].id, *slot, tally->block_hash, /*speculative=*/false);
    } else if (config_.quorum_speculative > 0 &&
               votes >= config_.quorum_speculative) {
      Accept(group, txns[i].id, *slot, tally->block_hash, /*speculative=*/true);
    }
  }
}

void ClientPool::Accept(Group& group, uint64_t id, Slot& slot,
                        const Hash256& block_hash, bool speculative) {
  if (oracle_) oracle_->OnClientAccept(id, block_hash, speculative);
  group.latencies.Add(sim_->Now() - slot.first_submit);
  ++group.accepted;
  if (speculative) ++group.accepted_speculative;
  if (config_.track_accepted) {
    group.records.push_back(AcceptedRecord{id, block_hash, speculative, sim_->Now()});
  }
  const uint64_t client = slot.client;
  FreeSlot(group, id);
  if (config_.arrival.kind == ArrivalKind::kClosedLoop) {
    SubmitFresh(client);  // closed loop: next request immediately
  }
}

void ClientPool::Sweep(uint32_t g) {
  sim_->SyncShared();  // drains the drawn log, re-enqueues: shared domain
  Group& group = *groups_[g];
  const SimTime now = sim_->Now();
  for (uint64_t id : group.drawn_log) {
    if (Slot* slot = FindSlot(group, id)) slot->drawn = true;
  }
  group.drawn_log.clear();
  for (Slot& slot : group.slots) {
    if (!slot.live || !slot.drawn) continue;
    if (now - slot.last_enqueue < config_.resubmit_timeout) continue;
    // The block carrying this transaction was likely orphaned (tail-forked
    // or rolled back); retry like a real client would.
    slot.drawn = false;
    slot.last_enqueue = now;
    ++group.resubmissions;
    queue_.push_back(QueueEntry{slot.txn, now});
  }
  sim_->AfterShard(config_.resubmit_timeout / 2, ClientGroupShard(g),
                   [this, g]() { Sweep(g); });
}

uint64_t ClientPool::accepted() const {
  uint64_t total = 0;
  for (const auto& group : groups_) total += group->accepted;
  return total;
}

uint64_t ClientPool::accepted_speculative() const {
  uint64_t total = 0;
  for (const auto& group : groups_) total += group->accepted_speculative;
  return total;
}

uint64_t ClientPool::resubmissions() const {
  uint64_t total = 0;
  for (const auto& group : groups_) total += group->resubmissions;
  return total;
}

LatencyRecorder ClientPool::latencies() const {
  LatencyRecorder merged;
  for (const auto& group : groups_) merged.Append(group->latencies);
  return merged;
}

std::vector<ClientPool::AcceptedRecord> ClientPool::accepted_records() const {
  std::vector<AcceptedRecord> merged;
  size_t total = 0;
  for (const auto& group : groups_) total += group->records.size();
  merged.reserve(total);
  for (const auto& group : groups_) {
    merged.insert(merged.end(), group->records.begin(), group->records.end());
  }
  return merged;
}

void ClientPool::ResetStats() {
  for (const auto& group : groups_) {
    group->latencies.Clear();
    group->accepted = 0;
    group->accepted_speculative = 0;
    group->resubmissions = 0;
  }
}

}  // namespace hotstuff1
