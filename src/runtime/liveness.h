// Online liveness oracle: the progress-monitor counterpart of the safety
// oracle (runtime/oracle.h). Thm B.8 guarantees that after GST some correct
// replica commits within k views; this observer flags runs that break that
// promise, online where possible and with an end-of-run silence check where
// the run stalls so hard that no further events arrive to judge.
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
// Violations carry the same reproducible `(config, seed, event#, t)`
// diagnostics as the safety oracle.
//
// Threading / determinism: same contract as InvariantOracle — state lives in
// the shared serial domain, every event-loop entry point gates on
// Simulator::SyncShared, nothing here schedules events, draws randomness or
// charges CPU, so the monitor is a pure observer and its verdict is
// byte-identical at any --jobs x --sim-jobs x --lookahead. Finalize runs off
// the event loop, after the simulator stopped.

#ifndef HOTSTUFF1_RUNTIME_LIVENESS_H_
#define HOTSTUFF1_RUNTIME_LIVENESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "crypto/signer.h"  // ReplicaId
#include "ledger/block.h"
#include "sim/simulator.h"

namespace hotstuff1 {

class LivenessOracle {
 public:
  struct Setup {
    uint32_t n = 0;
    std::shared_ptr<const std::vector<bool>> faulty_mask;  // null = all correct
    /// Virtual time at which the network is promised to stabilize. 0 arms
    /// the monitor from the start (synchronous run, or a schedule with no
    /// interference such as "0-:slow");
    /// StrategySchedule::kGstNever (open-ended interference with no declared
    /// GST) leaves the monitor inert — nothing was promised, so nothing can
    /// be violated.
    SimTime gst = 0;
    /// Online threshold: flag when correct replicas enter more than k views
    /// past the last correct commit (after GST). 0 = auto — conservative
    /// enough that no legitimate short run can trip it (see liveness.cc).
    uint64_t k = 0;
    /// End-of-run threshold: flag when the run ends >= grace after both GST
    /// and the last correct commit. 0 = auto (see liveness.cc).
    SimTime grace = 0;
    /// View timer tau; scales the auto grace threshold.
    SimTime view_timer = 0;
    std::string config_summary;  // repro, shared with the safety oracle
  };

  LivenessOracle(sim::Simulator* sim, Setup setup);

  LivenessOracle(const LivenessOracle&) = delete;
  LivenessOracle& operator=(const LivenessOracle&) = delete;

  // --- event API (called from replica events / the GST barrier event) ---------
  void OnViewEntered(ReplicaId replica, uint64_t view);
  void OnBlockCommitted(ReplicaId replica, const BlockPtr& block);
  /// Fired by Network's GST barrier event (Network::NotifyGstReached).
  void OnGstReached();

  /// End-of-run silence check; call once, off the event loop, with the run's
  /// final virtual time. A cap-truncated run is skipped (its silence says
  /// nothing about the protocol).
  void Finalize(SimTime end, bool event_cap_hit);

  // --- results (read after the run, off the event loop) ------------------------
  uint64_t violations() const { return violation_count_; }
  const std::vector<std::string>& violation_log() const { return violations_; }
  std::string FirstDiagnostic() const {
    return violations_.empty() ? std::string() : violations_.front();
  }
  uint64_t events_observed() const { return events_; }

  static constexpr size_t kMaxStoredViolations = 16;

 private:
  bool IsFaulty(ReplicaId r) const {
    return setup_.faulty_mask && r < setup_.faulty_mask->size() &&
           (*setup_.faulty_mask)[r];
  }
  void Report(const char* invariant, SimTime t, const std::string& detail);

  sim::Simulator* sim_;
  Setup setup_;
  uint64_t k_ = 0;       // resolved online threshold
  SimTime grace_ = 0;    // resolved silence threshold
  bool gst_reached_ = false;
  SimTime gst_time_ = 0;

  /// Highest view any correct replica has entered.
  uint64_t max_view_ = 0;
  /// max_view_ at the last correct commit (or at GST); the online check
  /// fires when max_view_ outruns this by more than k.
  uint64_t progress_view_ = 0;
  SimTime last_commit_time_ = 0;
  bool finalized_ = false;

  uint64_t events_ = 0;
  uint64_t violation_count_ = 0;
  std::vector<std::string> violations_;
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_RUNTIME_LIVENESS_H_
