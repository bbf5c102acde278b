// Pacemaker / view synchronizer (Fig. 3): views are grouped into epochs of
// f+1 consecutive views; replicas synchronize at every epoch boundary by
// exchanging Wish messages with the f+1 leaders of the next epoch, which
// form and broadcast a timeout certificate TC_v. On receiving TC_v at time
// t, a replica schedules StartTime[v+k] = t + k*tau; the start of view v+k
// is also the timeout of view v+k-1.
//
// Inside an epoch, views advance at network speed (a replica enters view
// v+1 the moment it completes view v); the wall-clock schedule only forces
// laggards forward.

#ifndef HOTSTUFF1_CONSENSUS_PACEMAKER_H_
#define HOTSTUFF1_CONSENSUS_PACEMAKER_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/replica_set.h"
#include "consensus/config.h"
#include "consensus/messages.h"
#include "crypto/signer.h"
#include "sim/simulator.h"

namespace hotstuff1 {

class Pacemaker {
 public:
  struct Callbacks {
    /// Replica enters `view` (possibly jumping over stale views).
    std::function<void(uint64_t view)> enter_view;
    /// The replica's current view timed out; the replica must send its
    /// NewView message and then call CompletedView(view + 1).
    std::function<void(uint64_t view)> view_timeout;
    /// Transports (the pacemaker shares the replica's network identity).
    std::function<void(ReplicaId to, std::shared_ptr<WishMsg>)> send_wish;
    std::function<void(std::shared_ptr<TimeoutCertMsg>)> broadcast_tc;
    std::function<void(ReplicaId to, std::shared_ptr<TimeoutCertMsg>)> send_tc;
  };

  /// Runs on `config`'s resolved committee (ResolveCommittee), view timer
  /// and test_break_liveness hook. `config` must outlive the pacemaker: a
  /// replica passes its own.
  Pacemaker(sim::Simulator* sim, const KeyRegistry* registry, Signer signer,
            const ConsensusConfig& config, Callbacks cb);

  /// Begins operation: synchronizes the first epoch (view 1).
  void Start();

  /// The replica finished view `next_view - 1` and wants to enter
  /// `next_view` (Fig. 3, CompletedView).
  void CompletedView(uint64_t next_view);

  void OnWish(const WishMsg& msg);
  void OnTimeoutCert(const TimeoutCertMsg& msg);

  uint64_t current_view() const { return current_view_; }
  /// Virtual time at which this replica entered its current view.
  SimTime entered_at() const { return entered_at_; }

  uint64_t epochs_synchronized() const { return epochs_synchronized_; }

  /// First view of the epoch containing `view`.
  uint64_t EpochStart(uint64_t view) const {
    return view - view % committee().views_per_epoch;
  }

  /// Bounded-state introspection (the per-view Wish/TC maps are pruned below
  /// the current epoch; see PruneStaleViews).
  size_t wish_state_size() const { return wishes_.size(); }
  size_t tc_handled_size() const { return tc_handled_.size(); }

 private:
  void SynchronizeEpoch(uint64_t view);
  void EnterView(uint64_t view);
  void ScheduleEpochTimers(uint64_t first_view, SimTime tc_time);
  void PruneStaleViews();
  Hash256 WishDigest(uint64_t view) const;
  /// Wish sending, aggregation targets and TC quorums follow the committee
  /// of the boundary's epoch. Epoch *geometry* (f+1 views per epoch) stays
  /// pinned to the allocated pool: membership changes must not move the
  /// boundaries the Wish/TC synchronization certifies.
  const CommitteeSchedule& committee() const { return config_.reconfig; }

  sim::Simulator* sim_;
  const KeyRegistry* registry_;
  Signer signer_;
  const ConsensusConfig& config_;
  Callbacks cb_;

  uint64_t current_view_ = 0;
  SimTime entered_at_ = 0;
  bool waiting_for_tc_ = false;
  uint64_t pending_epoch_view_ = 0;

  // Wish aggregation (this replica acting as a next-epoch leader).
  struct WishState {
    ReplicaSet signers;
    std::vector<Signature> sigs;
    bool tc_sent = false;
  };
  std::map<uint64_t, WishState> wishes_;
  std::set<uint64_t> tc_handled_;
  uint64_t epochs_synchronized_ = 0;
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_CONSENSUS_PACEMAKER_H_
