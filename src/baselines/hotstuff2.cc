#include "baselines/hotstuff2.h"

namespace hotstuff1 {

void HotStuff2Replica::ProcessCertificate(const Certificate& /*justify*/,
                                          const BlockPtr& certified,
                                          const BlockId& /*proposal*/) {
  CommitPrefix(certified, 1);
}

}  // namespace hotstuff1
