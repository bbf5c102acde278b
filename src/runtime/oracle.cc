#include "runtime/oracle.h"

#include <algorithm>

#include "common/logging.h"
#include "common/units.h"

namespace hotstuff1 {
namespace {

// Auto liveness thresholds. They must be loose enough that no *legitimate*
// run can trip them — including short fuzz points (~150ms of virtual time)
// where an f-sized crash coalition occupies every early view and the first
// honest commit legitimately takes many view timers — while still bounding
// how long a real post-GST stall can hide. Scenarios that want a sharp
// detector (fig_liveness, the over-threshold fuzz tier) set explicit
// thresholds matched to their own durations.
uint64_t AutoK(uint64_t f) {
  // Within any epoch of f+1 consecutive views at most f have faulty
  // leaders, so a correct commit is never more than ~2(f+1) views away in a
  // legitimate run. The auto threshold carries far more headroom than that
  // bound: the chained baselines can legitimately burn *every* view of a
  // short window on timeouts (an f-sized crash coalition keeps their leaders
  // waiting out the share timer each rotation, fuzz seed 31 at n=4), so k
  // must exceed any view count reachable in a fuzz-sized window. Detectors
  // that want a sharp k set it explicitly.
  return 8ull * (f + 1) + 32;
}

SimTime AutoGrace(uint64_t k, SimTime view_timer) {
  // Long enough that a run must idle for ~2k view timers — beyond any
  // legitimate commit gap — and floored so sub-second smoke windows can
  // never reach it at all.
  return std::max<SimTime>(2 * static_cast<SimTime>(k) * view_timer, Millis(500));
}

}  // namespace

InvariantOracle::InvariantOracle(sim::Simulator* sim, Setup setup)
    : sim_(sim), setup_(std::move(setup)) {
  replicas_.resize(setup_.n);
  const Hash256 genesis = Block::Genesis()->hash();
  for (ReplicaState& st : replicas_) st.committed_hash = genesis;
  height_of_[genesis] = 0;
  misled_views_.resize(setup_.n);

  // A resolved schedule's epochs are f+1 views wide.
  const uint64_t epoch_views = setup_.committee.views_per_epoch;
  k_ = setup_.k > 0 ? setup_.k : AutoK(epoch_views > 0 ? epoch_views - 1 : 0);
  const SimTime tau = setup_.view_timer > 0 ? setup_.view_timer : Millis(10);
  grace_ = setup_.grace > 0 ? setup_.grace : AutoGrace(k_, tau);
  // Synchronous from the start (no interference schedule): Thm B.8's clock
  // starts immediately, without a GST barrier event.
  gst_reached_ = setup_.gst == 0;
}

void InvariantOracle::Report(Family family, const char* invariant,
                             const std::string& detail) {
  Verdict& verdict = verdicts_[family];
  ++verdict.violations;
  if (verdict.log.size() >= kMaxStoredViolations) return;
  std::string diag = family == kSafety ? "oracle: invariant '" : "liveness: invariant '";
  diag += invariant;
  diag += "' violated at t=" + std::to_string(sim_->Now());
  diag += "us event#" + std::to_string(events_);
  diag += ": " + detail;
  diag += " [" + setup_.config_summary + "]";
  HS1_LOG_ERROR() << diag;
  verdict.log.push_back(std::move(diag));
}

void InvariantOracle::OnViewEntered(ReplicaId replica, uint64_t view) {
  sim_->SyncShared();
  ++events_;
  if (IsFaulty(replica)) return;
  ReplicaState& st = replicas_[replica];
  if (view <= st.last_view) {
    Report(kSafety, "view-monotonic",
           "replica " + std::to_string(replica) + " entered view " +
               std::to_string(view) + " after view " + std::to_string(st.last_view));
  }
  st.last_view = std::max(st.last_view, view);

  max_view_ = std::max(max_view_, view);
  if (gst_reached_ && max_view_ > progress_view_ + k_) {
    Report(kLiveness, "liveness-stall",
           "correct replicas reached view " + std::to_string(max_view_) +
               " with no correct commit since view " +
               std::to_string(progress_view_) + " (k=" + std::to_string(k_) +
               " views past GST, Thm B.8)");
    // Re-arm: a persistent stall reports once per k further views instead of
    // once per view entry.
    progress_view_ = max_view_;
  }
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
    Report(kSafety, "cert-monotonic",
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
  // Thm B.8 progress: a correct commit moves the stall baseline.
  last_commit_time_ = sim_->Now();
  progress_view_ = max_view_;
  ReplicaState& st = replicas_[replica];

  // commit-chain: heights advance by one and hash-link to the previous
  // commit of this replica.
  if (block->height() != st.committed_height + 1 ||
      block->parent_hash() != st.committed_hash) {
    Report(kSafety, "commit-chain",
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
      Report(kSafety, "commit-chain",
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
      if (setup_.committee.steps.size() > 1) {
        // Reconfiguration context: which epoch's committee each side was in
        // when it last spoke, so a cross-membership fork names its boundary.
        const uint64_t e = EpochIndex(st.last_view);
        detail += " (committer in epoch " + std::to_string(e) +
                  ", committee n=" +
                  std::to_string(
                      setup_.committee.AtEpoch(static_cast<uint32_t>(e)).n()) +
                  "; first committer in epoch " +
                  std::to_string(
                      EpochIndex(replicas_[entry.first_committer].last_view)) +
                  ")";
      }
      Report(kSafety, "commit-conflict", detail);
    }
    return;
  }
  entry.has_commit = true;
  entry.committed_hash = block->hash();
  entry.first_committer = replica;
  for (const auto& [responder, hash] : entry.spec_responses) {
    if (hash != block->hash()) {
      Report(kSafety, "spec-contradiction",
             "replica " + std::to_string(responder) +
                 " speculatively responded with " + hash.Short() +
                 " at height " + std::to_string(block->height()) +
                 " but " + block->hash().Short() + " committed there");
    }
  }
  entry.spec_responses.clear();
  for (const Hash256& accepted : entry.client_accepts) {
    if (accepted != block->hash()) {
      Report(kSafety, "client-accept",
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
      Report(kSafety, "spec-contradiction",
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
    Report(kSafety, "unexpected-rollback",
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
    Report(kSafety, "unexpected-rollback",
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
      Report(kSafety, "client-accept",
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

void InvariantOracle::OnGstReached() {
  sim_->SyncShared();
  ++events_;
  gst_reached_ = true;
  // Thm B.8 measures from GST: pre-GST view churn is the adversary's
  // prerogative and must not count against the k-view budget.
  progress_view_ = max_view_;
}

void InvariantOracle::Finalize() {
  if (finalized_) return;
  finalized_ = true;
  // A cap-truncated run proves nothing about progress; a run whose GST never
  // arrived promised nothing (StrategySchedule::kGstNever).
  if (sim_->cap_hit() || !gst_reached_) return;
  const SimTime end = sim_->Now();
  const SimTime base = std::max(last_commit_time_, setup_.gst);
  if (end - base >= grace_) {
    Report(kLiveness, "liveness-silence",
           "no correct commit for " + std::to_string(end - base) +
               "us after GST (t=" + std::to_string(setup_.gst) +
               "us, last correct commit t=" + std::to_string(last_commit_time_) +
               "us, grace=" + std::to_string(grace_) + "us)");
  }
}

}  // namespace hotstuff1
