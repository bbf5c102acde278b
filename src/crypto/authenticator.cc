#include "crypto/authenticator.h"

namespace hotstuff1 {

const char* CertSchemeName(CertScheme scheme) {
  switch (scheme) {
    case CertScheme::kMultisigVector: return "vector";
    case CertScheme::kAggregate: return "aggregate";
    case CertScheme::kThreshold: return "threshold";
  }
  return "vector";
}

}  // namespace hotstuff1
