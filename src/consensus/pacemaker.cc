#include "consensus/pacemaker.h"

#include "common/logging.h"

namespace hotstuff1 {

Pacemaker::Pacemaker(sim::Simulator* sim, const KeyRegistry* registry, Signer signer,
                     const ConsensusConfig& config, Callbacks cb)
    : sim_(sim),
      registry_(registry),
      signer_(signer),
      config_(config),
      cb_(std::move(cb)) {
  HS1_CHECK(committee().views_per_epoch > 0) << "committee schedule not resolved";
}

Hash256 Pacemaker::WishDigest(uint64_t view) const {
  Sha256 ctx;
  ctx.Update("hs1-wish");
  ctx.UpdateU64(view);
  return ctx.Finish();
}

void Pacemaker::Start() {
  // Epoch 0 covers views [0, f]; view 0 is the hard-coded genesis slot, so
  // the first view actually entered is view 1.
  SynchronizeEpoch(0);
}

void Pacemaker::CompletedView(uint64_t next_view) {
  if (next_view % committee().views_per_epoch != 0) {
    EnterView(next_view);
  } else {
    SynchronizeEpoch(next_view);
  }
}

void Pacemaker::SynchronizeEpoch(uint64_t view) {
  waiting_for_tc_ = true;
  pending_epoch_view_ = view;
  // test_break_liveness: the replica blocks waiting for a TC that no one will
  // ever assemble (every replica drops its Wishes past epoch 0), modelling a
  // view-synchronization bug that stalls the system without violating safety.
  if (config_.test_break_liveness && view > 0) return;
  // Standby replicas hold no wish power for this boundary's committee; they
  // block here and join the epoch when the TC broadcast arrives.
  const Committee& boundary = committee().AtView(view);
  if (!boundary.Contains(signer_.id())) return;
  auto msg = std::make_shared<WishMsg>(signer_.id());
  msg->view = view;
  msg->share = signer_.Sign(SignDomain::kWish, WishDigest(view));
  // The aggregators are the epoch's first f+1 leaders; `view` starts the
  // epoch and k <= f, so each view + k still lies inside it.
  for (uint32_t k = 0; k <= boundary.f(); ++k) {
    cb_.send_wish(committee().LeaderOfView(view + k), msg);
  }
}

void Pacemaker::OnWish(const WishMsg& msg) {
  if (!registry_->Verify(msg.share, SignDomain::kWish, WishDigest(msg.view))) {
    HS1_LOG_WARN() << "pacemaker: invalid wish share from " << msg.sender;
    return;
  }
  // Only the boundary committee's shares count toward the TC quorum: a
  // voted-out (or never-admitted) replica must not be able to help certify
  // an epoch it holds no power in.
  const Committee& boundary = committee().AtView(msg.view);
  if (!boundary.Contains(msg.share.signer)) return;
  WishState& ws = wishes_[msg.view];
  if (ws.tc_sent) return;
  if (ws.signers.Test(msg.share.signer)) return;
  ws.signers.Set(msg.share.signer);
  ws.sigs.push_back(msg.share);
  if (ws.signers.Count() >= boundary.quorum()) {
    ws.tc_sent = true;
    auto tc = std::make_shared<TimeoutCertMsg>(signer_.id());
    tc->view = msg.view;
    tc->sigs = ws.sigs;
    cb_.broadcast_tc(std::move(tc));
  }
}

void Pacemaker::OnTimeoutCert(const TimeoutCertMsg& msg) {
  if (tc_handled_.count(msg.view)) return;
  const Committee& boundary = committee().AtView(msg.view);
  const Status st = registry_->VerifyQuorum(msg.sigs, SignDomain::kWish,
                                            WishDigest(msg.view), boundary.quorum());
  if (!st.ok()) {
    HS1_LOG_WARN() << "pacemaker: bad TC for view " << msg.view << ": " << st;
    return;
  }
  tc_handled_.insert(msg.view);

  // Relay to the epoch's leaders so that a leader that missed the Wish
  // quorum still learns the certificate (Fig. 3 line 15).
  auto relay = std::make_shared<TimeoutCertMsg>(signer_.id());
  relay->view = msg.view;
  relay->sigs = msg.sigs;
  for (uint32_t k = 0; k <= boundary.f(); ++k) {
    cb_.send_tc(committee().LeaderOfView(msg.view + k), relay);
  }

  ScheduleEpochTimers(msg.view, sim_->Now());
  ++epochs_synchronized_;

  if (msg.view >= pending_epoch_view_) waiting_for_tc_ = false;
  const uint64_t target = msg.view == 0 ? 1 : msg.view;
  if (current_view_ < target) EnterView(target);
}

void Pacemaker::ScheduleEpochTimers(uint64_t first_view, SimTime tc_time) {
  // StartTime[first + k] = tc_time + k*tau; the start of view v+1 is the
  // timeout of view v.
  for (uint64_t k = 0; k < committee().views_per_epoch; ++k) {
    const uint64_t v = first_view + k;
    sim_->At(tc_time + static_cast<SimTime>(k + 1) * config_.view_timer, [this, v]() {
      // Drive the replica forward until it has left view v; guard against
      // re-entrancy when the replica is blocked on an epoch boundary.
      while (current_view_ <= v && !waiting_for_tc_) {
        const uint64_t stuck = current_view_;
        cb_.view_timeout(stuck);
        if (current_view_ == stuck) break;  // replica declined to advance
      }
    });
  }
}

void Pacemaker::EnterView(uint64_t view) {
  // A replica that was jumped forward (TC for a later epoch) ignores stale
  // entry requests.
  if (view <= current_view_) return;
  current_view_ = view;
  entered_at_ = sim_->Now();
  PruneStaleViews();
  cb_.enter_view(view);
}

void Pacemaker::PruneStaleViews() {
  // Wish aggregation state and TC dedup markers are only ever consulted for
  // the current epoch's boundary (and the next one, whose wishes may already
  // be arriving). Everything strictly below the current epoch is dead weight
  // — without pruning both containers grow one entry per epoch forever, a
  // slow leak and map-lookup tax on long soak and reconfiguration runs.
  // Dropping a stale TC marker is harmless: re-handling a very late TC is
  // idempotent for view state (EnterView ignores stale views) and merely
  // re-relays a bounded message.
  const uint64_t floor = EpochStart(current_view_);
  wishes_.erase(wishes_.begin(), wishes_.lower_bound(floor));
  tc_handled_.erase(tc_handled_.begin(), tc_handled_.lower_bound(floor));
}

}  // namespace hotstuff1
