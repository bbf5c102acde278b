#include "runtime/oracle.h"

#include <algorithm>

#include "common/logging.h"

namespace hotstuff1 {

InvariantOracle::InvariantOracle(sim::Simulator* sim, Setup setup)
    : sim_(sim), setup_(std::move(setup)) {
  replicas_.resize(setup_.n);
  const Hash256 genesis = Block::Genesis()->hash();
  for (ReplicaState& st : replicas_) st.committed_hash = genesis;
  height_of_[genesis] = 0;
  misled_views_.resize(setup_.n);
}

void InvariantOracle::Report(const char* invariant, const std::string& detail) {
  ++violation_count_;
  if (violations_.size() >= kMaxStoredViolations) return;
  std::string diag = "oracle: invariant '";
  diag += invariant;
  diag += "' violated at t=" + std::to_string(sim_->Now());
  diag += "us event#" + std::to_string(events_);
  diag += ": " + detail;
  diag += " [" + setup_.config_summary + "]";
  HS1_LOG_ERROR() << diag;
  violations_.push_back(std::move(diag));
}

void InvariantOracle::OnViewEntered(ReplicaId replica, uint64_t view) {
  sim_->SyncShared();
  ++events_;
  if (IsFaulty(replica)) return;
  ReplicaState& st = replicas_[replica];
  if (view <= st.last_view) {
    Report("view-monotonic", "replica " + std::to_string(replica) +
                                 " entered view " + std::to_string(view) +
                                 " after view " + std::to_string(st.last_view));
  }
  st.last_view = std::max(st.last_view, view);
}

void InvariantOracle::OnCertificateFormed(ReplicaId replica,
                                          const Certificate& cert) {
  sim_->SyncShared();
  ++events_;
  // Register the certified block globally — certificates formed by faulty
  // replicas via collusion are still valid quorum artifacts, and commits
  // anywhere may rest on them.
  certified_.insert(cert.block_hash());
  if (IsFaulty(replica)) return;
  ReplicaState& st = replicas_[replica];
  if (st.has_formed_cert && cert.block_id() < st.last_cert_id) {
    Report("cert-monotonic",
           "replica " + std::to_string(replica) + " formed certificate for " +
               cert.block_id().ToString() + " after one for " +
               st.last_cert_id.ToString());
  }
  st.has_formed_cert = true;
  if (st.last_cert_id < cert.block_id()) st.last_cert_id = cert.block_id();
}

void InvariantOracle::OnBlockCommitted(ReplicaId replica, const BlockPtr& block) {
  sim_->SyncShared();
  ++events_;
  height_of_[block->hash()] = block->height();
  if (IsFaulty(replica)) return;  // a faulty ledger constrains nothing
  ReplicaState& st = replicas_[replica];

  // commit-chain: heights advance by one and hash-link to the previous
  // commit of this replica.
  if (block->height() != st.committed_height + 1 ||
      block->parent_hash() != st.committed_hash) {
    Report("commit-chain",
           "replica " + std::to_string(replica) + " committed " +
               block->ToString() + " at height " +
               std::to_string(block->height()) + " atop height " +
               std::to_string(st.committed_height) + " tip " +
               st.committed_hash.Short());
  }

  // commit-chain: the committed block must be certified. A slotted carry
  // block has no certificate of its own; it is admitted when the next commit
  // is its certified first-slot child carrying it (§6.1 execution unit).
  if (st.pending_uncertified) {
    if (!certified_.count(block->hash()) ||
        block->carry_hash() != st.pending_uncertified->hash()) {
      Report("commit-chain",
             "replica " + std::to_string(replica) + " committed uncertified " +
                 st.pending_uncertified->ToString() +
                 " not carried by the next certified commit " + block->ToString());
    }
    st.pending_uncertified = nullptr;
  } else if (!certified_.count(block->hash())) {
    st.pending_uncertified = block;  // judged when the next commit arrives
  }

  st.committed_height = block->height();
  st.committed_hash = block->hash();

  // commit-conflict + cross-checks against speculation and client accepts.
  HeightEntry& entry = heights_[block->height()];
  if (entry.has_commit) {
    if (entry.committed_hash != block->hash()) {
      std::string detail =
          "replica " + std::to_string(replica) + " committed " +
          block->ToString() + " (" + block->hash().Short() + ") at height " +
          std::to_string(block->height()) + " but replica " +
          std::to_string(entry.first_committer) + " committed " +
          entry.committed_hash.Short() + " there";
      if (setup_.committee) {
        // Reconfiguration context: which epoch's committee each side was in
        // when it last spoke, so a cross-membership fork names its boundary.
        const uint64_t e = EpochIndex(st.last_view);
        detail += " (committer in epoch " + std::to_string(e) +
                  ", committee n=" +
                  std::to_string(
                      setup_.committee->AtEpoch(static_cast<uint32_t>(e)).n()) +
                  "; first committer in epoch " +
                  std::to_string(
                      EpochIndex(replicas_[entry.first_committer].last_view)) +
                  ")";
      }
      Report("commit-conflict", detail);
    }
    return;
  }
  entry.has_commit = true;
  entry.committed_hash = block->hash();
  entry.first_committer = replica;
  for (const auto& [responder, hash] : entry.spec_responses) {
    if (hash != block->hash()) {
      Report("spec-contradiction",
             "replica " + std::to_string(responder) +
                 " speculatively responded with " + hash.Short() +
                 " at height " + std::to_string(block->height()) +
                 " but " + block->hash().Short() + " committed there");
    }
  }
  entry.spec_responses.clear();
  for (const Hash256& accepted : entry.client_accepts) {
    if (accepted != block->hash()) {
      Report("client-accept",
             "clients accepted block " + accepted.Short() + " at height " +
                 std::to_string(block->height()) + " but " +
                 block->hash().Short() + " committed there");
    }
  }
  entry.client_accepts.clear();
}

void InvariantOracle::OnSpeculativeResponse(ReplicaId replica,
                                            const BlockPtr& block) {
  sim_->SyncShared();
  ++events_;
  height_of_[block->hash()] = block->height();
  // Faulty replicas may respond with anything; designated rollback victims
  // are *expected* to speculate the losing branch (§7.3) — Def. 4.7 rollback
  // is their recovery, not a violation.
  if (IsFaulty(replica) || IsRollbackVictim(replica)) return;
  HeightEntry& entry = heights_[block->height()];
  if (entry.has_commit) {
    if (entry.committed_hash != block->hash()) {
      Report("spec-contradiction",
             "replica " + std::to_string(replica) +
                 " speculatively responded with " + block->hash().Short() +
                 " at height " + std::to_string(block->height()) + " where " +
                 entry.committed_hash.Short() + " is already committed");
    }
    return;
  }
  entry.spec_responses.emplace_back(replica, block->hash());
}

void InvariantOracle::OnEquivocationSent(ReplicaId leader, uint64_t view) {
  sim_->SyncShared();
  ++events_;
  (void)leader;  // any coalition leader misleads the same designated set
  for (ReplicaId r = 0; r < setup_.n; ++r) {
    if (IsRollbackVictim(r)) misled_views_[r].push_back(view);
  }
}

void InvariantOracle::OnRollback(ReplicaId replica, uint64_t blocks_rolled_back,
                                 uint64_t conflict_view) {
  sim_->SyncShared();
  ++events_;
  if (IsFaulty(replica)) return;
  const std::string prefix = "replica " + std::to_string(replica) +
                             " rolled back " +
                             std::to_string(blocks_rolled_back) +
                             " speculative block(s) at conflicting view " +
                             std::to_string(conflict_view) + " ";
  if (!IsRollbackVictim(replica)) {
    const bool any_victim =
        setup_.victims &&
        std::find(setup_.victims->begin(), setup_.victims->end(), true) !=
            setup_.victims->end();
    Report("unexpected-rollback",
           prefix + (any_victim ? "but is not a designated victim"
                                : "without an equivocation attack in the configuration"));
    return;
  }
  // Def. 4.7 legality: the rollback must be justified by an outstanding
  // misleading campaign at most two epochs older than the conflicting view
  // (see the header). Campaigns newer than the conflict are ongoing and also
  // legal. The justifying record is consumed, oldest first, so one campaign
  // cannot launder an unrelated buggy rollback later in the run.
  std::vector<uint64_t>& records = misled_views_[replica];
  const uint64_t conflict_epoch = EpochIndex(conflict_view);
  auto it = std::find_if(records.begin(), records.end(), [&](uint64_t m) {
    return EpochIndex(m) + 2 >= conflict_epoch;
  });
  if (it == records.end()) {
    Report("unexpected-rollback",
           prefix + (records.empty()
                         ? "with no outstanding misleading campaign"
                         : "but every outstanding campaign is stale (newest "
                           "at view " +
                               std::to_string(records.back()) +
                               ", >2 epochs before the conflict)"));
    return;
  }
  records.erase(it);
}

void InvariantOracle::OnClientAccept(uint64_t txn_id, const Hash256& block_hash,
                                     bool speculative) {
  sim_->SyncShared();
  ++events_;
  auto height_it = height_of_.find(block_hash);
  if (height_it == height_of_.end()) return;  // height unknown: cannot judge
  HeightEntry& entry = heights_[height_it->second];
  if (entry.has_commit) {
    if (entry.committed_hash != block_hash) {
      Report("client-accept",
             "txn " + std::to_string(txn_id) + " accepted " +
                 std::string(speculative ? "speculatively" : "committed") +
                 " in block " + block_hash.Short() + " at height " +
                 std::to_string(height_it->second) + " where " +
                 entry.committed_hash.Short() + " is committed");
    }
    return;
  }
  if (std::find(entry.client_accepts.begin(), entry.client_accepts.end(),
                block_hash) == entry.client_accepts.end()) {
    entry.client_accepts.push_back(block_hash);
  }
}

}  // namespace hotstuff1
