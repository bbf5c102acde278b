// Epoch-based committee reconfiguration. Membership is a pure function of
// the view: a CommitteeSchedule maps pacemaker epochs (f_base+1 views each)
// to sorted member lists over a fixed allocation of `max_n` nodes. Nodes are
// never created or destroyed mid-run — they switch between *member* (vote,
// propose, aggregate, wish) and *standby* (learn, execute, answer clients)
// at certified epoch boundaries, so `Network`/shard maps stay fixed-size and
// the conservative lookahead horizon stays valid.
//
// Every run resolves its schedule once (ResolveCommittee): the static
// committee is the one-step schedule "0:0-(n-1)", so leaders, quorums and
// membership always come from a schedule.

#ifndef HOTSTUFF1_CONSENSUS_COMMITTEE_H_
#define HOTSTUFF1_CONSENSUS_COMMITTEE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/signer.h"

namespace hotstuff1 {

/// One epoch's active membership: a sorted, duplicate-free id list.
struct Committee {
  std::vector<ReplicaId> members;

  uint32_t n() const { return static_cast<uint32_t>(members.size()); }
  /// Fault bound of *this* committee (BFT arithmetic follows its size).
  uint32_t f() const { return (n() - 1) / 3; }
  uint32_t quorum() const { return n() - f(); }

  bool Contains(ReplicaId r) const;

  bool operator==(const Committee& o) const { return members == o.members; }
  bool operator!=(const Committee& o) const { return !(*this == o); }
};

/// A membership step: `committee` becomes active at epoch `from_epoch` and
/// stays active until a later step replaces it.
struct CommitteeStep {
  uint32_t from_epoch = 0;
  Committee committee;

  bool operator==(const CommitteeStep& o) const {
    return from_epoch == o.from_epoch && committee == o.committee;
  }
};

/// \brief Epoch-indexed membership schedule.
///
/// Epoch geometry is the pacemaker's: epoch e covers views
/// [e*views_per_epoch, (e+1)*views_per_epoch), with views_per_epoch =
/// f_base+1 fixed by the *allocated* committee for the whole run (membership
/// changes must not move the epoch boundaries the Wish/TC synchronization
/// already certifies). `views_per_epoch` is 0 in an unresolved schedule (as
/// parsed from text) and is stamped by ResolveCommittee.
struct CommitteeSchedule {
  uint64_t views_per_epoch = 0;
  std::vector<CommitteeStep> steps;  // strictly increasing from_epoch; [0] at epoch 0

  bool empty() const { return steps.empty(); }

  const Committee& AtEpoch(uint32_t epoch) const;
  const Committee& AtView(uint64_t view) const { return AtEpoch(EpochOf(view)); }
  uint32_t EpochOf(uint64_t view) const {
    return static_cast<uint32_t>(view / views_per_epoch);
  }

  /// Round-robin over the view's active committee (replaces `view % n`).
  ReplicaId LeaderOfView(uint64_t view) const {
    const Committee& c = AtView(view);
    return c.members[view % c.members.size()];
  }

  /// Largest member id across all steps (the schedule's allocation floor).
  ReplicaId MaxMember() const;

  bool operator==(const CommitteeSchedule& o) const {
    return views_per_epoch == o.views_per_epoch && steps == o.steps;
  }
  bool operator!=(const CommitteeSchedule& o) const { return !(*this == o); }
};

/// Parses the reconfiguration text grammar:
///
///   schedule := step (';' step)*
///   step     := <epoch> ':' range ('+' range)*
///   range    := <id> | <lo> '-' <hi>            (inclusive)
///
/// e.g. "0:0-15;4:0-11;8:0-3+8-19" — full 0..15 committee until epoch 4,
/// shrink to 0..11, then a 16-member split committee from epoch 8. Steps
/// must have strictly increasing epochs; a schedule that does not start at
/// epoch 0 gets no implicit prefix and is rejected. Every committee needs
/// >= 4 members (the smallest BFT quorum geometry). Numbers are strict
/// non-negative digit strings (no sign, no whitespace); member ids are at
/// most ReplicaSet::kCapacity - 1, so no range expands past the quorum
/// bitset (the id list is common/parse.h's ParseIdList). An empty text
/// parses to an empty (null-equivalent) schedule. `views_per_epoch` is left
/// 0 — the runtime resolves it.
bool ParseCommitteeSchedule(const std::string& text, CommitteeSchedule* out,
                            std::string* error = nullptr);

/// Inverse of ParseCommitteeSchedule (round-trips through Parse).
std::string FormatCommitteeSchedule(const CommitteeSchedule& s);

/// The one resolution step: the schedule an allocation of `n` replicas runs
/// on. An empty `given` becomes the one-step full committee 0..n-1; either
/// way views_per_epoch is stamped to f+1 with f = floor((n-1)/3). Every
/// member must be < n.
CommitteeSchedule ResolveCommittee(CommitteeSchedule given, uint32_t n);

}  // namespace hotstuff1

#endif  // HOTSTUFF1_CONSENSUS_COMMITTEE_H_
