// Pacemaker (Fig. 3): epoch synchronization via Wish/TC, wall-clock view
// schedule, laggard catch-up, fast-path progress, and Wish/TC power under a
// reconfiguring committee.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "consensus/pacemaker.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace hotstuff1 {
namespace {

// Parameters of n replicas with view timer `tau` and committee schedule
// `reconfig` ("" = static), resolved as Experiment::Setup resolves them.
ConsensusConfig Config(uint32_t n, SimTime tau, const char* reconfig = "") {
  ConsensusConfig config;
  config.n = n;
  config.view_timer = tau;
  CommitteeSchedule schedule;
  EXPECT_TRUE(ParseCommitteeSchedule(reconfig, &schedule)) << reconfig;
  config.reconfig = ResolveCommittee(schedule, n);
  return config;
}

// Harness: n pacemakers over a simulated network, sharing one config. Each
// fake replica either makes instant progress (calls CompletedView as soon as
// it enters a view) or only advances via timeouts. Every Wish sent is
// recorded.
class PacemakerHarness {
 public:
  struct WishSent {
    ReplicaId from;
    ReplicaId to;
    uint64_t view;
    Signature share;
  };

  PacemakerHarness(ConsensusConfig config, bool instant_progress)
      : n_(config.n), config_(std::move(config)), registry_(n_, 9), net_(&sim_, n_) {
    net_.SetAllLatencies(Millis(0.1));
    for (uint32_t i = 0; i < n_; ++i) {
      entered_.emplace_back();
      timeouts_.emplace_back();
    }
    for (uint32_t i = 0; i < n_; ++i) {
      Pacemaker::Callbacks cb;
      cb.enter_view = [this, i, instant_progress](uint64_t v) {
        entered_[i].push_back(v);
        if (instant_progress) {
          // Simulate an instantly-successful view: complete it right away.
          sim_.After(10, [this, i, v]() {
            if (pacemakers_[i]->current_view() == v) {
              pacemakers_[i]->CompletedView(v + 1);
            }
          });
        }
      };
      cb.view_timeout = [this, i](uint64_t v) {
        timeouts_[i].push_back(v);
        pacemakers_[i]->CompletedView(v + 1);
      };
      cb.send_wish = [this, i](ReplicaId to, std::shared_ptr<WishMsg> m) {
        wishes_.push_back({i, to, m->view, m->share});
        net_.Send(i, to, std::move(m));
      };
      cb.broadcast_tc = [this, i](std::shared_ptr<TimeoutCertMsg> m) {
        net_.Broadcast(i, m);
      };
      cb.send_tc = [this, i](ReplicaId to, std::shared_ptr<TimeoutCertMsg> m) {
        net_.Send(i, to, std::move(m));
      };
      pacemakers_.push_back(
          std::make_unique<Pacemaker>(&sim_, &registry_, Signer(&registry_, i), config_, cb));
    }
    for (uint32_t i = 0; i < n_; ++i) {
      net_.SetHandler(i, [this, i](sim::NodeId, const sim::NetMessagePtr& raw) {
        const auto* msg = static_cast<const ConsensusMessage*>(raw.get());
        if (msg->type == ConsensusMessage::Type::kWish) {
          pacemakers_[i]->OnWish(static_cast<const WishMsg&>(*msg));
        } else if (msg->type == ConsensusMessage::Type::kTimeoutCert) {
          pacemakers_[i]->OnTimeoutCert(static_cast<const TimeoutCertMsg&>(*msg));
        }
      });
    }
  }

  void StartAll() {
    for (auto& p : pacemakers_) p->Start();
  }

  uint32_t n_;
  ConsensusConfig config_;
  KeyRegistry registry_;
  sim::Simulator sim_;
  sim::Network net_;
  std::vector<std::unique_ptr<Pacemaker>> pacemakers_;
  std::vector<std::vector<uint64_t>> entered_;
  std::vector<std::vector<uint64_t>> timeouts_;
  std::vector<WishSent> wishes_;
};

TEST(PacemakerTest, InitialEpochSynchronizesEveryone) {
  PacemakerHarness h(Config(4, Millis(10)), /*instant_progress=*/false);
  h.StartAll();
  h.sim_.RunUntil(Millis(5));
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_FALSE(h.entered_[i].empty());
    EXPECT_EQ(h.entered_[i].front(), 1u);  // first real view
    EXPECT_EQ(h.pacemakers_[i]->current_view(), 1u);
  }
}

TEST(PacemakerTest, TimeoutsDriveViewsOnSchedule) {
  // Without progress, views advance at tau intervals per the StartTime
  // schedule: view v+k starts at tc_time + k*tau.
  PacemakerHarness h(Config(4, Millis(10)), false);
  h.StartAll();
  h.sim_.RunUntil(Millis(45));
  for (uint32_t i = 0; i < 4; ++i) {
    // Within 45ms: enter view 1 (~0), timeout drives views ~ every 10ms,
    // plus an epoch sync every f+1 = 2 views.
    EXPECT_GE(h.pacemakers_[i]->current_view(), 3u);
    EXPECT_FALSE(h.timeouts_[i].empty());
  }
  // All replicas agree on the view (same schedule).
  for (uint32_t i = 1; i < 4; ++i) {
    EXPECT_EQ(h.pacemakers_[i]->current_view(), h.pacemakers_[0]->current_view());
  }
}

TEST(PacemakerTest, FastPathOutrunsTimers) {
  // With instant progress, views advance far faster than tau.
  PacemakerHarness h(Config(4, Millis(100)), /*instant_progress=*/true);
  h.StartAll();
  h.sim_.RunUntil(Millis(50));
  // In 50ms with ~10us views plus epoch syncs every 2 views, we should have
  // gone through many views although not a single tau elapsed.
  EXPECT_GT(h.pacemakers_[0]->current_view(), 20u);
  EXPECT_TRUE(h.timeouts_[0].empty());
}

TEST(PacemakerTest, EpochBoundaryRequiresSynchronization) {
  PacemakerHarness h(Config(4, Millis(10)), true);
  h.StartAll();
  h.sim_.RunUntil(Millis(50));
  // f+1 = 2 views per epoch: epochs synchronized repeatedly.
  EXPECT_GT(h.pacemakers_[0]->epochs_synchronized(), 5u);
}

TEST(PacemakerTest, EnteredAtTracksEntryTime) {
  PacemakerHarness h(Config(4, Millis(10)), false);
  h.StartAll();
  h.sim_.RunUntil(Millis(5));
  const Pacemaker& p = *h.pacemakers_[0];
  EXPECT_GE(p.entered_at(), 0);
}

TEST(PacemakerTest, EpochStartArithmetic) {
  PacemakerHarness h(Config(7, Millis(10)), false);
  const Pacemaker& p = *h.pacemakers_[0];
  EXPECT_EQ(p.EpochStart(0), 0u);
  EXPECT_EQ(p.EpochStart(2), 0u);
  EXPECT_EQ(p.EpochStart(3), 3u);  // f+1 = 3
  EXPECT_EQ(p.EpochStart(5), 3u);
  EXPECT_EQ(p.EpochStart(6), 6u);
}

TEST(PacemakerTest, CrashedMinorityDoesNotBlockSync) {
  PacemakerHarness h(Config(4, Millis(10)), false);
  h.net_.Crash(3);
  h.StartAll();
  h.sim_.RunUntil(Millis(60));
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_GE(h.pacemakers_[i]->current_view(), 3u) << i;
  }
}

TEST(PacemakerTest, WishStateStaysBoundedOver10kViews) {
  // Regression: wishes_ / tc_handled_ used to grow one entry per epoch for
  // the lifetime of the run (an unbounded-memory bug in long experiments).
  // EnterView now prunes every view below the current epoch start, so after
  // 10k views the resident state is the current boundary plus at most a
  // wish/TC that arrived early for the next one — a small constant, not ~5k.
  PacemakerHarness h(Config(4, Millis(100)), /*instant_progress=*/true);
  h.StartAll();
  SimTime t = 0;
  while (h.pacemakers_[0]->current_view() < 10'000 && t < Millis(20'000)) {
    t += Millis(100);
    h.sim_.RunUntil(t);
  }
  ASSERT_GE(h.pacemakers_[0]->current_view(), 10'000u);
  for (uint32_t i = 0; i < h.n_; ++i) {
    EXPECT_LE(h.pacemakers_[i]->wish_state_size(), 4u) << "replica " << i;
    EXPECT_LE(h.pacemakers_[i]->tc_handled_size(), 4u) << "replica " << i;
  }
}

TEST(PacemakerTest, LaggardJumpsForwardOnTc) {
  // Replica 3 misses the first TC (crashed during sync, then recovers): a
  // later TC pulls it to the current epoch.
  PacemakerHarness h(Config(4, Millis(10)), false);
  h.net_.Crash(3);
  h.StartAll();
  h.sim_.RunUntil(Millis(15));
  EXPECT_EQ(h.pacemakers_[3]->current_view(), 0u);
  h.net_.Recover(3);
  h.sim_.RunUntil(Millis(80));
  // Replica 3 re-joins via a subsequent epoch's TC broadcast.
  EXPECT_GE(h.pacemakers_[3]->current_view(),
            h.pacemakers_[0]->current_view() > 2
                ? h.pacemakers_[0]->current_view() - 2
                : 1);
}

TEST(PacemakerTest, ReconfiguringScheduleMovesWishPowerAndQuorums) {
  // n = 7, f = 2: epochs are 3 views wide. Epochs 0-1 run the full
  // committee (f = 2, quorum 5); from epoch 2 (view 6) only 0-3 are members
  // (f = 1, quorum 3) and 4-6 stand by.
  const ConsensusConfig config = Config(7, Millis(10), "0:0-6;2:0-3");
  PacemakerHarness h(config, /*instant_progress=*/true);
  h.StartAll();
  h.sim_.RunUntil(Millis(5));
  ASSERT_GE(h.pacemakers_[0]->current_view(), 12u);

  std::map<uint64_t, std::set<ReplicaId>> targets, senders;
  for (const PacemakerHarness::WishSent& w : h.wishes_) {
    targets[w.view].insert(w.to);
    senders[w.view].insert(w.from);
  }
  // Each boundary's Wishes go to the leaders of its epoch's first f+1 views,
  // round-robin over that epoch's committee.
  EXPECT_EQ(targets[0], (std::set<ReplicaId>{0, 1, 2}));
  EXPECT_EQ(targets[3], (std::set<ReplicaId>{3, 4, 5}));
  EXPECT_EQ(targets[6], (std::set<ReplicaId>{2, 3}));  // views 6, 7 over 0-3
  EXPECT_EQ(targets[9], (std::set<ReplicaId>{1, 2}));  // views 9, 10
  // Standby replicas send no Wish.
  EXPECT_EQ(senders[3], (std::set<ReplicaId>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(senders[6], (std::set<ReplicaId>{0, 1, 2, 3}));
  EXPECT_EQ(senders[9], (std::set<ReplicaId>{0, 1, 2, 3}));

  // A TC needs its boundary committee's quorum: 4 of the recorded shares do
  // not certify view 3 (quorum 5), and 3 certify view 6 (quorum 3) where 2
  // do not. Replica 6 of a fresh harness (same keys) starts at view 0.
  const auto tc = [&](uint64_t view, size_t shares) {
    TimeoutCertMsg msg(0);
    msg.view = view;
    std::set<ReplicaId> signers;
    for (const PacemakerHarness::WishSent& w : h.wishes_) {
      if (w.view == view && msg.sigs.size() < shares && signers.insert(w.from).second) {
        msg.sigs.push_back(w.share);
      }
    }
    EXPECT_EQ(msg.sigs.size(), shares);
    return msg;
  };
  PacemakerHarness fresh(config, /*instant_progress=*/false);
  Pacemaker& p = *fresh.pacemakers_[6];
  p.OnTimeoutCert(tc(3, 4));
  EXPECT_EQ(p.current_view(), 0u);
  p.OnTimeoutCert(tc(3, 5));
  EXPECT_EQ(p.current_view(), 3u);
  p.OnTimeoutCert(tc(6, 2));
  EXPECT_EQ(p.current_view(), 3u);
  p.OnTimeoutCert(tc(6, 3));
  EXPECT_EQ(p.current_view(), 6u);
}

}  // namespace
}  // namespace hotstuff1
