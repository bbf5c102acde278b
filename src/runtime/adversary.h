// Placement of the adversary coalition across a replica set, plus the
// composable per-epoch strategy-schedule library (parse/format and plan
// threading; the primitive semantics live in consensus/config.h).

#ifndef HOTSTUFF1_RUNTIME_ADVERSARY_H_
#define HOTSTUFF1_RUNTIME_ADVERSARY_H_

#include <memory>
#include <string>
#include <vector>

#include "consensus/config.h"
#include "crypto/signer.h"  // ReplicaId

namespace hotstuff1 {

/// Fault placement for an experiment: which replicas are adversarial and
/// the schedule they follow.
struct AdversaryPlan {
  /// Faulty replicas (ids 1..count, so that round-robin leadership hits
  /// them every rotation).
  std::shared_ptr<const std::vector<bool>> faulty_mask;
  /// The §7.3 victim set when the schedule equivocates, else null (see
  /// AdversarySpec::victims).
  std::shared_ptr<const std::vector<bool>> victims;
  /// Resolved strategy schedule shared by every coalition member (null when
  /// the run has none).
  std::shared_ptr<const StrategySchedule> schedule;

  /// Per-replica spec (inert for honest replicas).
  AdversarySpec SpecFor(ReplicaId r) const;
};

/// Builds a plan with `count` faulty replicas following `schedule`, placed
/// at ids 1..count (id 0 stays honest as the measurement observer).
/// `schedule` must be resolved (epoch_length > 0) or empty. When it
/// equivocates, the victims are the first `rollback_victims` correct
/// replicas in id order, with the count clamped to f = (n-1)/3: the §7.3
/// attack misleads a subset S of correct replicas with |S| <= f — any more
/// and the doomed branch could gather an n-f speculative client quorum,
/// which would break client safety (Cor. B.10) rather than model the
/// paper's adversary.
AdversaryPlan MakeAdversaryPlan(uint32_t n, uint32_t count,
                                uint32_t rollback_victims = 0,
                                StrategySchedule schedule = {});

// --- strategy-schedule text form ---------------------------------------------
// Grammar (the --strategy flag; see docs/scenario-authoring.md):
//
//   schedule  := segment (';' segment)*
//   segment   := entry | "epoch=" <us> | "gst=" <us>
//   entry     := range ':' action (',' action)*
//   range     := <from> | <from> '-' | <from> '-' <to>      (to exclusive,
//                "<from>-" = open-ended)
//   action    := "equivocate" | "withhold" | "delay=" <us> | "target-leader"
//              | "slow" | "tailfork" | "crash"     (crash: only "0-:crash")
//              | "partition=" group ('|' group)+   (group := idlist)
//              | "outage=" idlist                  (correlated region outage)
//              | "jitter=" <pct>                   (WAN jitter, % of latency)
//   idlist    := idrange ('+' idrange)*
//   idrange   := <id> | <lo> '-' <hi>              (hi inclusive)
//
// All numbers are plain digit strings: no sign characters, no whitespace
// ("+5" and " 5" are rejected — Format never emits them, and accepting them
// would break the round-trip contract). Epochs stay below kEpochForever,
// partition ids below ReplicaSet::kCapacity and outage regions below 5 (the
// paper's regions), so no range expands without bound; CheckConfig
// (runtime/config_schema.h) then rejects ids and regions the run lacks.
//
// Examples: "0-:withhold"            withhold forever
//           "0-:slow"               Fig. 10(a-d) slow leaders (D6)
//           "0-:tailfork;1-3:withhold"  tail-fork throughout, and also
//                                       go silent in epochs 1-2
//           "1-3:delay=5000;gst=90000"  5ms extra delay in epochs 1-2,
//                                       declared GST at 90ms
//           "0-3:partition=0-7|8-15"    split the first 16 replicas into two
//                                       halves during epochs 0-2
//           "2:outage=0+2,jitter=50"    regions 0 and 2 degraded and +50%
//                                       uniform jitter during epoch 2
//
// Parse and Format round-trip: Parse(Format(s)) == s for any valid schedule.

/// Parses the grammar above into `out`. Returns false (and fills `error`
/// when non-null) on malformed input. An empty string parses to an empty
/// schedule.
bool ParseStrategySchedule(const std::string& text, StrategySchedule* out,
                           std::string* error = nullptr);

/// Canonical text form of a schedule ("" for an empty one).
std::string FormatStrategySchedule(const StrategySchedule& schedule);

}  // namespace hotstuff1

#endif  // HOTSTUFF1_RUNTIME_ADVERSARY_H_
