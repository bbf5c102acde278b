#include "core/hotstuff1_streamlined.h"

namespace hotstuff1 {

bool HotStuff1StreamlinedReplica::TestBreakSafetyCommit(const BlockPtr& certified) {
  // The injected bug: a replica whose speculation conflicts with the
  // incoming certified chain "trusts" its own speculative execution and
  // promotes it to the committed ledger instead of rolling it back
  // (Def. 4.7 inverted). Under the rollback attack this makes a designated
  // victim commit the abandoned branch — a genuine equivocation commit that
  // the oracle's commit-conflict lattice must report.
  if (ledger_.spec_depth() == 0) return false;
  if (ledger_.IsCommitted(certified->hash()) ||
      ledger_.IsSpeculated(certified->hash()) ||
      certified->height() > ledger_.spec_tip()->height()) {
    return false;  // certified chain agrees with (or extends) our speculation
  }
  DeliverCommits(ledger_.CommitChain(ledger_.spec_tip()));
  // Halt after the equivocation commit: continuing to process the winning
  // chain would trip the Ledger's own fork HS1_CHECK and abort the whole
  // process before the oracle's verdict can be observed by a test. A replica
  // that equivocated and went silent is exactly the failure shape the oracle
  // exists to catch from the outside.
  SetCrashed();
  return true;
}

void HotStuff1StreamlinedReplica::ProcessCertificate(const Certificate& justify,
                                                     const BlockPtr& certified,
                                                     const BlockId& proposal) {
  if (config_.test_break_safety && TestBreakSafetyCommit(certified)) return;

  // Commit rule first (Fig. 4 lines 9-10), so the Prefix Speculation rule
  // sees the freshest global-ledger state.
  CommitPrefix(certified, 1);

  // No-Gap rule (Def. 3.2): the certificate must be from the immediately
  // preceding view.
  SpeculateAndRespond(certified, justify.block_id().Precedes(proposal));
}

}  // namespace hotstuff1
