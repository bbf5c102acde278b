// Online invariant oracle: the one passive observer every protocol core, the
// client pool and the experiment's GST barrier event report into at each
// state transition, checking the paper's claims *while the run executes*
// instead of as an end-of-run prefix comparison. Its safety family (Thm B.5,
// Cor B.10, Def 4.7):
//
//   * commit-conflict   - no two correct replicas commit different blocks at
//                         the same height (Theorem B.5, online form);
//   * commit-chain      - each correct replica's commits advance height by
//                         exactly one and hash-link to its previous commit,
//                         and every committed block is certified (a slotted
//                         carry block is admitted when the next commit is its
//                         certified first-slot child, §6.1);
//   * spec-contradiction- a speculative response issued by a correct replica
//                         that is not a designated rollback victim is never
//                         contradicted by a conflicting commit at the same
//                         height (the speculation rules of §3/§4 make
//                         speculative responses final);
//   * client-accept     - a block a client accepted (speculatively or
//                         committed, Cor. B.10) never conflicts with the
//                         committed lattice;
//   * unexpected-rollback - rollbacks (Def. 4.7) only occur under an
//                         equivocating schedule and only at designated
//                         victims;
//   * view-monotonic    - views entered by a correct replica strictly
//                         increase; formed certificates rank monotonically.
//
// Its liveness family is a progress monitor for Thm B.8 (after GST some
// correct replica commits within k views), online where possible and with an
// end-of-run silence check where the run stalls so hard that no further
// events arrive to judge:
//
//   * liveness-stall   - correct replicas entered more than k views past the
//                        last correct commit after GST (views churn, nothing
//                        commits — e.g. leaders propose but certificates
//                        never form);
//   * liveness-silence - the run ended >= `grace` of virtual time after both
//                        GST and the last correct commit (views stopped
//                        entirely — e.g. an over-threshold coalition starves
//                        the pacemaker's n-f Wish quorum, so epoch
//                        synchronization never completes and no view-entry
//                        events exist for the online check to see).
//
// A violation is reported immediately (HS1_LOG_ERROR) with a reproducible
// `(config, seed, event#, t)` diagnostic and counted into its family's
// verdict (ExperimentResult::oracle_violations / liveness_violations), so a
// buggy run fails loudly instead of emitting a silently wrong CSV row.
//
// Threading / determinism: oracle state is one shared domain in the
// Simulator::SyncShared sense (docs/ARCHITECTURE.md, "Shared domains").
// Events arrive from many shards — each replica's shard, the client pool's
// shard — so every entry point gates on SyncShared before touching state:
// earlier events have completed, mutations happen in exact serial event
// order, and the violation log, counters and diagnostics are byte-identical
// at any --jobs x --sim-jobs x --lookahead. The oracle never schedules
// events, draws randomness, or charges CPU, so enabling it cannot perturb
// the simulation it observes.

#ifndef HOTSTUFF1_RUNTIME_ORACLE_H_
#define HOTSTUFF1_RUNTIME_ORACLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "consensus/certificate.h"
#include "consensus/committee.h"
#include "ledger/block.h"
#include "sim/simulator.h"

namespace hotstuff1 {

class InvariantOracle {
 public:
  /// The two families of claims the oracle judges; each keeps its own verdict.
  enum Family { kSafety, kLiveness };

  /// One family's verdict: every violation counts, and the first
  /// kMaxStoredViolations full diagnostics are kept.
  struct Verdict {
    uint64_t violations = 0;
    std::vector<std::string> log;
    /// First diagnostic line, empty when clean.
    std::string First() const { return log.empty() ? std::string() : log.front(); }
  };

  /// What the oracle must know about the run to judge events: the committee,
  /// the adversary placement (faulty replicas are exempt from checks — they
  /// may do anything), the rollback attack's designated victims, the liveness
  /// promise (GST and thresholds), and the (config, seed) pair for diagnostics.
  struct Setup {
    uint32_t n = 0;
    std::shared_ptr<const std::vector<bool>> faulty_mask;  // null = all correct
    /// The designated §7.3 victims (AdversaryPlan::victims): the very mask
    /// the equivocating leaders split their proposals across, so the two
    /// sides cannot drift. Null when the schedule never equivocates.
    std::shared_ptr<const std::vector<bool>> victims;
    /// The run's resolved committee schedule (ResolveCommittee); its
    /// views_per_epoch is the pacemaker's epoch geometry. The committed-block
    /// lattice is keyed by chain height and deliberately NOT reset at
    /// membership changes: Theorem B.5 agreement binds the whole chain, so a
    /// replica voted out in epoch e must still agree with blocks committed
    /// by the epoch-e+1 committee at heights it ever speaks for. End-of-run
    /// CheckSafety cannot see this (it skips crashed/out replicas); only
    /// this cross-epoch lattice can.
    CommitteeSchedule committee;
    /// Virtual time at which the network is promised to stabilize. 0 arms
    /// the liveness family from the start (a synchronous run, or a schedule
    /// with no interference such as "0-:slow"); StrategySchedule::kGstNever
    /// (open-ended interference with no declared GST) leaves it inert:
    /// nothing was promised, so nothing can be violated.
    SimTime gst = 0;
    /// Online threshold: flag when correct replicas enter more than k views
    /// past the last correct commit (after GST). 0 = auto — conservative
    /// enough that no legitimate short run can trip it (see oracle.cc).
    uint64_t k = 0;
    /// End-of-run threshold: flag when the run ends >= grace after both GST
    /// and the last correct commit. 0 = auto (see oracle.cc).
    SimTime grace = 0;
    /// View timer tau; scales the auto grace threshold.
    SimTime view_timer = 0;
    std::string config_summary;  // DescribeConfig repro, seed included
  };

  InvariantOracle(sim::Simulator* sim, Setup setup);

  InvariantOracle(const InvariantOracle&) = delete;
  InvariantOracle& operator=(const InvariantOracle&) = delete;

  // --- event API (called from replica / client-pool / GST barrier events) -----
  void OnViewEntered(ReplicaId replica, uint64_t view);
  void OnCertificateFormed(ReplicaId replica, const Certificate& cert);
  void OnBlockCommitted(ReplicaId replica, const BlockPtr& block);
  void OnSpeculativeResponse(ReplicaId replica, const BlockPtr& block);
  /// The attacking leader split proposals at `view`: every designated victim
  /// now has an outstanding misleading campaign at that view. Rollback
  /// legality (Def. 4.7) is judged against these records.
  void OnEquivocationSent(ReplicaId leader, uint64_t view);
  /// `conflict_view` is the chain view of the committed block that displaced
  /// the speculation (NOT the replica's wall-clock view — a backlogged victim
  /// may process the conflicting commit arbitrarily late). Legal only for a
  /// designated victim holding an outstanding campaign record no more than
  /// two epochs older than the conflicting view: one epoch for the faulty
  /// leadership window that planted it plus one epoch of fetch/timeout
  /// recovery slack before honest leaders commit the winning branch.
  void OnRollback(ReplicaId replica, uint64_t blocks_rolled_back,
                  uint64_t conflict_view);
  void OnClientAccept(uint64_t txn_id, const Hash256& block_hash, bool speculative);
  /// Fired by the experiment's GST barrier event, at Setup::gst.
  void OnGstReached();

  /// End-of-run silence check; call once, off the event loop, after the
  /// simulator stopped at the run's end time. A cap-truncated run is skipped
  /// (its silence says nothing about the protocol).
  void Finalize();

  // --- results (read after the run, off the event loop) ------------------------
  const Verdict& verdict(Family family) const { return verdicts_[family]; }
  /// Total events observed; tests use this to prove the plumbing is live.
  uint64_t events_observed() const { return events_; }
  /// The designated victim set rollbacks are judged against (null when the
  /// run misleads nobody).
  const std::vector<bool>* victims() const { return setup_.victims.get(); }

  static constexpr size_t kMaxStoredViolations = 16;

 private:
  bool IsFaulty(ReplicaId r) const {
    return setup_.faulty_mask && r < setup_.faulty_mask->size() &&
           (*setup_.faulty_mask)[r];
  }
  bool IsRollbackVictim(ReplicaId r) const {
    return setup_.victims && r < setup_.victims->size() && (*setup_.victims)[r];
  }
  /// Pacemaker epoch of a view (f+1 consecutive views per epoch).
  uint64_t EpochIndex(uint64_t view) const {
    return view / setup_.committee.views_per_epoch;
  }
  /// Formats, logs and stores one violation of `family` with the
  /// (config, seed, event#, t) diagnostic. Deterministic: every input
  /// derives from simulation state.
  void Report(Family family, const char* invariant, const std::string& detail);

  /// Global commit lattice entry for one chain height.
  struct HeightEntry {
    bool has_commit = false;
    Hash256 committed_hash;
    ReplicaId first_committer = 0;
    /// Speculative responses by correct non-victim replicas issued before a
    /// commit reached this height; cross-checked when the commit lands.
    std::vector<std::pair<ReplicaId, Hash256>> spec_responses;
    /// Distinct block hashes clients accepted at this height (pre-commit).
    std::vector<Hash256> client_accepts;
  };

  /// Per-replica serial state (only that replica's events touch it, but it
  /// lives behind the same SyncShared gate as the global maps).
  struct ReplicaState {
    uint64_t last_view = 0;
    uint64_t committed_height = 0;
    Hash256 committed_hash;  // genesis at start
    bool has_formed_cert = false;
    BlockId last_cert_id{};
    /// A committed block with no certificate of its own, awaiting its
    /// certified first-slot child (slotted carry unit, §6.1).
    BlockPtr pending_uncertified;
  };

  sim::Simulator* sim_;
  Setup setup_;
  /// Outstanding misleading-campaign views per victim, appended by
  /// OnEquivocationSent and consumed (oldest matching first) when the
  /// victim's rollback uses them as its Def. 4.7 justification.
  std::vector<std::vector<uint64_t>> misled_views_;

  std::vector<ReplicaState> replicas_;
  std::unordered_map<uint64_t, HeightEntry> heights_;
  std::unordered_set<Hash256, Hash256Hasher> certified_;
  std::unordered_map<Hash256, uint64_t, Hash256Hasher> height_of_;

  // Liveness family state (Thm B.8).
  uint64_t k_ = 0;            // resolved online threshold
  SimTime grace_ = 0;         // resolved silence threshold
  bool gst_reached_ = false;  // Thm B.8's clock runs from Setup::gst
  /// Highest view any correct replica has entered.
  uint64_t max_view_ = 0;
  /// max_view_ at the last correct commit (or at GST); the online check
  /// fires when max_view_ outruns this by more than k.
  uint64_t progress_view_ = 0;
  SimTime last_commit_time_ = 0;
  bool finalized_ = false;

  uint64_t events_ = 0;
  Verdict verdicts_[2];
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_RUNTIME_ORACLE_H_
