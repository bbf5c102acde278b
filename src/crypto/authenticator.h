// Authenticator *size* model: how many wire bytes a signature share or a
// quorum certificate occupies under a given certificate scheme. This is the
// byte-cost companion to CostModel's sign/verify *time* knobs.
//
// The paper's implementation (§7) transmits certificates as a list of n−f
// digital signatures — O(n) bytes per certificate. Production BFT systems
// instead aggregate: a BLS aggregate signature is one 48-byte G1 point plus
// a signer bitmap (who signed must still be named so the verifier can sum
// the right public keys), and a threshold signature drops even the bitmap
// (any t-of-n subset produces the same group signature). The consensus
// logic is identical in all three cases — shares are counted, digests bind
// votes to their protocol step — so the scheme is purely a *wire-size* axis:
// it changes what Network's bandwidth serialization charges, never what a
// quorum means. See docs/cost-model.md for the full table.

#ifndef HOTSTUFF1_CRYPTO_AUTHENTICATOR_H_
#define HOTSTUFF1_CRYPTO_AUTHENTICATOR_H_

#include <cstddef>
#include <cstdint>

namespace hotstuff1 {

/// Wire encoding chosen for signature shares and quorum certificates.
enum class CertScheme : uint8_t {
  /// §7 implementation note: a certificate is the literal vector of n−f
  /// (signer id, signature) pairs. O(n) certificate bytes.
  kMultisigVector = 0,
  /// BLS-style aggregation (the shape of leap's finalizer_policy QCs): one
  /// 48-byte G1 aggregate plus a ceil(n/8)-byte signer bitmap. O(1) + n/8.
  kAggregate = 1,
  /// Threshold signature: one group signature, no signer identification
  /// needed. O(1) regardless of committee size.
  kThreshold = 2,
};

/// "vector" | "aggregate" | "threshold" (the --cert-scheme spellings).
const char* CertSchemeName(CertScheme scheme);

/// Pure byte-size formulas for one (scheme, committee) pair. Default state
/// (vector scheme) reproduces the pre-model wire sizes exactly, so messages
/// that were never stamped keep their legacy byte accounting.
struct AuthSizeModel {
  CertScheme scheme = CertScheme::kMultisigVector;
  /// Committee size, used only for the aggregate scheme's signer bitmap.
  uint32_t committee_n = 0;

  /// Bytes of one signature share travelling alone (a vote, a Wish share).
  /// Vector: 64-byte signature + 32-byte signer/meta framing, the historical
  /// 96. Aggregate/threshold: a 48-byte BLS G1 point (the signer is already
  /// named in the message envelope).
  size_t ShareBytes() const {
    return scheme == CertScheme::kMultisigVector ? 96 : 48;
  }

  /// Bytes of a certificate's authenticator section when `shares` shares
  /// were collected. Empty certificates (genesis) cost nothing under every
  /// scheme, keeping genesis traffic scheme-independent.
  size_t CertBytes(size_t shares) const {
    if (shares == 0) return 0;
    switch (scheme) {
      case CertScheme::kMultisigVector:
        return shares * 96;
      case CertScheme::kAggregate:
        return 48 + (static_cast<size_t>(committee_n) + 7) / 8;
      case CertScheme::kThreshold:
        return 48;
    }
    return shares * 96;
  }
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_CRYPTO_AUTHENTICATOR_H_
