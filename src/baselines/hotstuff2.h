// HotStuff-2 (Malkhi & Nayak, 2023) as the paper's streamlined baseline:
// the chained skeleton with the two-chain (prefix) commit rule. 5 half-phases
// from proposal to committed client response (7 including the client hops).

#ifndef HOTSTUFF1_BASELINES_HOTSTUFF2_H_
#define HOTSTUFF1_BASELINES_HOTSTUFF2_H_

#include "baselines/hotstuff.h"

namespace hotstuff1 {

class HotStuff2Replica : public ChainedReplica {
 public:
  using ChainedReplica::ChainedReplica;
  const char* Name() const override { return "HotStuff-2"; }

 protected:
  void ProcessCertificate(const Certificate& justify, const BlockPtr& certified,
                          const BlockId& proposal) override;
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_BASELINES_HOTSTUFF2_H_
