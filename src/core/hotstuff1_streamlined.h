// Streamlined HotStuff-1 (§5, Fig. 4): the chained skeleton with the prefix
// commit rule plus one-phase speculation. When a proposal for view v carries
// P(v-1), replicas speculatively execute B_{v-1} (guarded by the Prefix
// Speculation and No-Gap rules) and send clients early finality
// confirmations: 3 half-phases from proposal to speculative response.
// Clients accept on n-f matching responses (§3).

#ifndef HOTSTUFF1_CORE_HOTSTUFF1_STREAMLINED_H_
#define HOTSTUFF1_CORE_HOTSTUFF1_STREAMLINED_H_

#include "baselines/hotstuff.h"

namespace hotstuff1 {

class HotStuff1StreamlinedReplica : public ChainedReplica {
 public:
  using ChainedReplica::ChainedReplica;

  const char* Name() const override { return "HotStuff-1"; }

 protected:
  void ProcessCertificate(const Certificate& justify, const BlockPtr& certified,
                          const BlockId& proposal) override;

 private:
  /// Test-only mutation (ConsensusConfig::test_break_safety): when the newly
  /// certified chain conflicts with local speculation, commit the speculated
  /// branch instead of rolling it back — an equivocation-commit bug the
  /// invariant oracle must detect. Returns true when the bug fired (the
  /// replica then halts, see the .cc for why).
  bool TestBreakSafetyCommit(const BlockPtr& certified);
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_CORE_HOTSTUFF1_STREAMLINED_H_
