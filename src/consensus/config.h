// Shared protocol configuration: quorum parameters, timers, the virtual CPU
// cost model, and test/ablation hooks.

#ifndef HOTSTUFF1_CONSENSUS_CONFIG_H_
#define HOTSTUFF1_CONSENSUS_CONFIG_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.h"
#include "consensus/committee.h"
#include "crypto/authenticator.h"

namespace hotstuff1 {

/// Virtual CPU costs (microseconds) charged against a replica's simulated
/// processor. Calibrated so that the no-failure latency/throughput regimes
/// of §7 appear (see DESIGN.md "Virtual resource model").
struct CostModel {
  SimTime sign_us = 12;           // producing one signature share
  SimTime verify_us = 15;         // verifying one signature
  SimTime per_message_us = 6;     // parsing/dispatch per received message
  double per_txn_exec_us = 0.5;   // executing one transaction
  SimTime propose_base_us = 25;   // assembling a proposal

  SimTime ExecCost(size_t txns) const {
    return static_cast<SimTime>(per_txn_exec_us * static_cast<double>(txns));
  }
};

// --- composable adversary strategies -----------------------------------------
// The strategy schedule is the only description of the adversary: per-epoch
// combinations of the primitives below, each independently toggled for the
// coalition. The §7.3 failure experiments are single entries of it: slow
// leaders (D6) "0-:slow", tail-forking (D7) "0-:tailfork", the rollback
// campaign "0-:equivocate" and a crashed coalition "0-:crash".
// runtime/adversary.{h,cc} parses/formats schedules and threads them into
// AdversarySpec; replicas consult them through the AdversarySpec helpers at
// their transport and proposal choke points.

/// Primitive adversary actions, combinable as a bitmask per epoch.
enum StrategyAction : uint32_t {
  kActNone = 0,
  /// Split proposals across a victim mask (§7.3 rollback equivocation).
  kActEquivocate = 1u << 0,
  /// Drop all outbound protocol traffic (silent-but-listening coalition).
  kActWithhold = 1u << 1,
  /// Extra one-way delay on all of the coalition's outbound traffic
  /// (implemented as Network fault rules — only ever *adds* delay, so the
  /// lookahead horizon stays valid).
  kActDelay = 1u << 2,
  /// Drop traffic addressed to the current or next view's leader, starving
  /// certificate formation without going fully silent.
  kActTargetLeader = 1u << 3,
  /// Network split: traffic between the entry's node groups is dropped for
  /// the entry's epochs; the partition heals when the entry ends (its
  /// to_epoch is the heal time). Environmental — applies to all traffic,
  /// not just the coalition's.
  kActPartition = 1u << 4,
  /// Correlated regional outage: all traffic to and from the entry's
  /// topology regions is dropped. Environmental.
  kActOutage = 1u << 5,
  /// WAN jitter: every cross-node delivery gains a uniformly random extra
  /// delay of up to jitter_pct% of its base latency (only ever *adds* delay,
  /// so the lookahead horizon stays valid). Environmental.
  kActJitter = 1u << 6,
  /// D6 slow leader: as leader, hold the proposal until three quarters of
  /// the view timer has run (Example 6.1). Under slotting the incentive
  /// flips and the leader proposes promptly (the experiment's point), so
  /// the slotted core ignores it.
  kActSlow = 1u << 7,
  /// D7 tail-forking: as leader, ignore the previous view's votes and extend
  /// the certificate of view v-2, orphaning the previous proposal (Example
  /// 6.2). The basic core, whose leader forms P(v) itself, ignores it.
  kActTailFork = 1u << 8,
  /// The coalition is down for the whole run. Only valid as the entry
  /// "0-:crash"; Experiment::Setup crashes the members instead of arming
  /// them.
  kActCrash = 1u << 9,
};

/// Sentinel for an open-ended strategy entry.
inline constexpr uint32_t kEpochForever = UINT32_MAX;

/// One schedule row: `actions` are live during epochs [from_epoch, to_epoch).
/// Every member has a default: {.actions = kActCrash} is "0-:crash".
struct StrategyEntry {
  uint32_t from_epoch = 0;
  uint32_t to_epoch = kEpochForever;  // exclusive; kEpochForever = open-ended
  uint32_t actions = kActNone;
  SimTime delay = 0;  // only read when actions has kActDelay
  /// kActPartition: node groups isolated from each other (each group a
  /// sorted id list; nodes in no group communicate freely with everyone).
  std::vector<std::vector<uint32_t>> partition{};
  /// kActOutage: topology region indices cut off from the rest.
  std::vector<uint32_t> outage_regions{};
  /// kActJitter: max extra delay as an integer percentage of base latency.
  uint32_t jitter_pct = 0;
};

inline bool operator==(const StrategyEntry& a, const StrategyEntry& b) {
  return a.from_epoch == b.from_epoch && a.to_epoch == b.to_epoch &&
         a.actions == b.actions && a.delay == b.delay &&
         a.partition == b.partition && a.outage_regions == b.outage_regions &&
         a.jitter_pct == b.jitter_pct;
}

/// A per-epoch adversary strategy for the whole coalition. Epochs are fixed
/// wall-clock slices of `epoch_length` virtual time (0 = resolve to
/// (f+1) * view_timer at experiment setup, mirroring the pacemaker's
/// f+1-views-per-epoch grouping). `declared_gst` is the time the adversary
/// *claims* interference ends (Global Stabilization Time): kGstAuto derives
/// it from the schedule — the end of the last interference entry, or "never"
/// for open-ended interference. A schedule that keeps interfering past its
/// declared GST is exactly what the liveness oracle exists to flag.
struct StrategySchedule {
  std::vector<StrategyEntry> entries;
  SimTime epoch_length = 0;          // 0 = auto: (f+1) * view_timer
  static constexpr SimTime kGstAuto = -1;
  static constexpr SimTime kGstNever = INT64_MAX;
  SimTime declared_gst = kGstAuto;

  bool empty() const { return entries.empty(); }

  /// The schedule "0-:<actions>": the coalition does `actions` in every
  /// epoch. kActNone gives the empty schedule.
  static StrategySchedule Always(uint32_t actions) {
    StrategySchedule s;
    if (actions != kActNone) s.entries.push_back({.actions = actions});
    return s;
  }

  bool HasAction(uint32_t action) const {
    for (const StrategyEntry& e : entries) {
      if (e.actions & action) return true;
    }
    return false;
  }

  /// OR of all actions live during epoch `epoch`.
  uint32_t ActionsInEpoch(uint32_t epoch) const {
    uint32_t a = kActNone;
    for (const StrategyEntry& e : entries) {
      if (epoch >= e.from_epoch && epoch < e.to_epoch) a |= e.actions;
    }
    return a;
  }

  /// Epoch index at virtual time `now`. Requires a resolved epoch_length.
  uint32_t EpochAt(SimTime now) const {
    return epoch_length <= 0 ? 0 : static_cast<uint32_t>(now / epoch_length);
  }

  uint32_t ActionsAt(SimTime now) const {
    return entries.empty() ? kActNone : ActionsInEpoch(EpochAt(now));
  }

  /// Actions that perturb message timeliness. Equivocation is a safety
  /// problem, not a progress problem; slow and tail-forking leaders still
  /// propose within their view and a crashed coalition is within the fault
  /// bound, so none of them interferes either. Partitions, outages, and
  /// jitter are environmental interference: their entries' ends (heal
  /// times) push GST just like coalition delay does.
  static constexpr uint32_t kInterference =
      kActWithhold | kActDelay | kActTargetLeader | kActPartition | kActOutage |
      kActJitter;

  /// Concrete GST given a resolved epoch_length: the declared time if set,
  /// else the end of the last interference entry (0 when the schedule never
  /// interferes, kGstNever when it interferes open-endedly).
  SimTime ResolvedGst() const {
    if (declared_gst != kGstAuto) return declared_gst;
    SimTime gst = 0;
    for (const StrategyEntry& e : entries) {
      if (!(e.actions & kInterference)) continue;
      if (e.to_epoch == kEpochForever) return kGstNever;
      gst = std::max(gst, static_cast<SimTime>(e.to_epoch) * epoch_length);
    }
    return gst;
  }
};

inline bool operator==(const StrategySchedule& a, const StrategySchedule& b) {
  return a.entries == b.entries && a.epoch_length == b.epoch_length &&
         a.declared_gst == b.declared_gst;
}
inline bool operator!=(const StrategySchedule& a, const StrategySchedule& b) {
  return !(a == b);
}

struct AdversarySpec {
  /// Faulty replicas vote for any proposal from a faulty leader, bypassing
  /// safety checks (collusion). On when the schedule equivocates, slows or
  /// tail-forks.
  bool collude = false;
  /// Shared membership of the adversary's coalition: faulty->at(r) is true
  /// iff replica r is adversary-controlled. Null for honest replicas.
  std::shared_ptr<const std::vector<bool>> faulty;
  /// The §7.3 victim set an equivocating leader misleads: victims->at(r) is
  /// true iff correct replica r gets the honest branch. Computed once per
  /// run and shared with the invariant oracle, which exempts exactly this
  /// set from rollback checks. Null when the schedule never equivocates.
  std::shared_ptr<const std::vector<bool>> victims;
  /// Per-epoch strategy schedule (resolved: epoch_length > 0). Null for
  /// honest replicas.
  std::shared_ptr<const StrategySchedule> schedule;

  /// True when this replica colludes with `leader`: both are in the
  /// coalition, so it votes for whatever `leader` proposes.
  bool ColludesWith(ReplicaId leader) const {
    return collude && faulty && (*faulty)[leader];
  }
  /// Schedule-driven actions live at `now`.
  uint32_t ScheduledActions(SimTime now) const {
    return schedule ? schedule->ActionsAt(now) : kActNone;
  }
  /// The leader splits proposals across the victim mask.
  bool Equivocates(SimTime now) const {
    return (ScheduledActions(now) & kActEquivocate) != 0;
  }
  bool SlowLeader(SimTime now) const {
    return (ScheduledActions(now) & kActSlow) != 0;
  }
  bool TailForks(SimTime now) const {
    return (ScheduledActions(now) & kActTailFork) != 0;
  }
  bool Withholds(SimTime now) const {
    return (ScheduledActions(now) & kActWithhold) != 0;
  }
  bool TargetsLeader(SimTime now) const {
    return (ScheduledActions(now) & kActTargetLeader) != 0;
  }
};

/// The parameter set every protocol core and the pacemaker run on (Figs.
/// 2-4, 7): the committee with its round-robin leaders and n-f quorums, the
/// view timer and the delay bound, the virtual CPU costs, and the ablation
/// and mutation hooks. ExperimentConfig (runtime/experiment.h) extends it
/// with the world around the protocol, so each field here is also a knob.
struct ConsensusConfig {
  /// Allocated replicas (the paper's default point is n = 32). The fault
  /// bound f follows: f() = floor((n-1)/3).
  uint32_t n = 32;
  uint32_t batch_size = 100;
  /// Assumed transmission bound Δ (drives ShareTimer = entry + 3Δ).
  SimTime delta = Millis(2);
  /// View timer length τ handed to the pacemaker.
  SimTime view_timer = Millis(10);
  /// Slotted HotStuff-1: cap on slots per view; 0 = adaptive (as many as the
  /// view timer allows, §6.1).
  uint32_t max_slots = 0;
  CostModel costs;
  /// Wire encoding of shares/certificates — a pure byte-size axis charged by
  /// Network's bandwidth serialization (crypto/authenticator.h). The
  /// consensus-visible certificate contract is scheme-independent.
  CertScheme cert_scheme = CertScheme::kMultisigVector;

  /// Epoch-based committee reconfiguration (--reconfig; grammar in
  /// consensus/committee.h). All `n` nodes are allocated up front, and the
  /// schedule switches each between member and standby at pacemaker epoch
  /// boundaries; every member id must be < n. Empty as typed means the static
  /// full committee. Replicas, the pacemaker and the oracle only ever see
  /// the resolved form (ResolveCommittee): at least one step, and
  /// views_per_epoch = f+1.
  CommitteeSchedule reconfig;

  // --- ablation & test hooks -------------------------------------------------
  /// Disable speculative responses entirely (HotStuff-1 degenerates to
  /// HotStuff-2 latency; ablation 1 in DESIGN.md).
  bool speculation_enabled = true;
  /// Disable the trusted-previous-leader fast path (§6.3; ablation 3).
  bool trusted_leader_enabled = true;
  /// Test-only mutation hook for the invariant oracle's self-test: the
  /// streamlined HotStuff-1 core injects an equivocation-commit bug (a
  /// replica whose speculation conflicts with the certified chain commits
  /// the speculated branch instead of rolling it back). Proves the oracle
  /// fires; never enable outside tests.
  bool test_break_safety = false;
  /// Test-only mutation hook for the *liveness* oracle's self-test: the
  /// pacemaker silently stops sending Wish messages after epoch 0, so view
  /// synchronization stalls at the first epoch boundary while every
  /// end-of-run safety check stays green. Only the online progress monitor
  /// (the oracle's liveness family, runtime/oracle.h) catches it. Never
  /// enable outside tests.
  bool test_break_liveness = false;
  /// Test-only mutation hook for the oracle's *cross-reconfiguration*
  /// self-test: a replica that is voted out of the committee commits a
  /// fabricated block on top of its committed tip as it leaves, then halts.
  /// The end-of-run CheckSafety skips crashed replicas, so only the
  /// InvariantOracle's height-keyed commit lattice — which spans epochs —
  /// catches the conflict with what the new committee commits at that
  /// height. Never enable outside tests.
  bool test_break_reconfig = false;

  uint32_t f() const { return (n - 1) / 3; }
  uint32_t quorum() const { return n - f(); }

  /// Size model the transport stamps onto outgoing messages.
  AuthSizeModel auth_model() const { return AuthSizeModel{cert_scheme, n}; }
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_CONSENSUS_CONFIG_H_
