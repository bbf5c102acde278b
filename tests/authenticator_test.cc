// Authenticator byte model: per-scheme share/certificate sizes,
// legacy-equivalence of the default (unstamped) model, and the StampAuth
// wiring that lets one message object report different wire bytes per
// committee configuration. The consensus-visible
// Certificate contract is scheme-independent; only WireSize moves.

#include <gtest/gtest.h>

#include "consensus/certificate.h"
#include "consensus/config.h"
#include "consensus/messages.h"
#include "crypto/authenticator.h"

namespace hotstuff1 {
namespace {

constexpr AuthSizeModel kVector{CertScheme::kMultisigVector, 64};
constexpr AuthSizeModel kAggregate{CertScheme::kAggregate, 64};
constexpr AuthSizeModel kThreshold{CertScheme::kThreshold, 64};

TEST(AuthSizeModelTest, ShareBytesPerScheme) {
  EXPECT_EQ(kVector.ShareBytes(), 96u);     // 64B sig + 32B metadata (§7)
  EXPECT_EQ(kAggregate.ShareBytes(), 48u);  // BLS12-381 G1 point
  EXPECT_EQ(kThreshold.ShareBytes(), 48u);
}

TEST(AuthSizeModelTest, VectorCertGrowsLinearlyInShares) {
  EXPECT_EQ(kVector.CertBytes(1), 96u);
  EXPECT_EQ(kVector.CertBytes(43), 43u * 96u);   // n=64 quorum
  EXPECT_EQ(kVector.CertBytes(342), 342u * 96u); // n=512 quorum
}

TEST(AuthSizeModelTest, AggregateCertIsConstantInSharesPlusBitmap) {
  // One G1 point + a ceil(n/8)-byte signer bitmap: independent of how many
  // shares went in, linear only in the committee size.
  EXPECT_EQ(kAggregate.CertBytes(1), 48u + 8u);
  EXPECT_EQ(kAggregate.CertBytes(43), 48u + 8u);
  const AuthSizeModel odd{CertScheme::kAggregate, 65};
  EXPECT_EQ(odd.CertBytes(44), 48u + 9u);  // bitmap rounds up
  const AuthSizeModel big{CertScheme::kAggregate, 512};
  EXPECT_EQ(big.CertBytes(342), 48u + 64u);
}

TEST(AuthSizeModelTest, ThresholdCertIsFlat) {
  EXPECT_EQ(kThreshold.CertBytes(1), 48u);
  EXPECT_EQ(kThreshold.CertBytes(342), 48u);
  const AuthSizeModel big{CertScheme::kThreshold, 512};
  EXPECT_EQ(big.CertBytes(342), 48u);  // no bitmap either
}

TEST(AuthSizeModelTest, EmptyCertificateIsFreeUnderEveryScheme) {
  // Genesis certificates carry no authenticator at all.
  for (const AuthSizeModel& m : {kVector, kAggregate, kThreshold}) {
    EXPECT_EQ(m.CertBytes(0), 0u);
  }
}

// --- wiring: certificates and messages --------------------------------------

class AuthWiringTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kN = 7, kF = 2, kQuorum = kN - kF;
  AuthWiringTest() : registry_(kN, 42) {}

  Certificate MakeCert() {
    const Hash256 h = Sha256::Digest("block");
    VoteAccumulator acc(CertKind::kPrepare, 1, {1, 1}, h, kQuorum);
    for (ReplicaId r = 0; r < kQuorum; ++r) {
      acc.Add(Signer(&registry_, r)
                  .Sign(SignDomain::kProposeVote,
                        VoteDigest(CertKind::kPrepare, 1, {1, 1}, h)));
    }
    return acc.Build(1);
  }

  KeyRegistry registry_;
};

TEST_F(AuthWiringTest, CertificateWireSizeDefaultsToLegacyVector) {
  const Certificate c = MakeCert();
  // The default model is the multisig vector, so the pre-model accounting
  // (64B header + 96B per share) is unchanged for callers passing no model.
  EXPECT_EQ(c.WireSize(), 64u + kQuorum * 96u);
  EXPECT_EQ(c.WireSize(AuthSizeModel{CertScheme::kAggregate, kN}),
            64u + 48u + 1u);
  EXPECT_EQ(c.WireSize(AuthSizeModel{CertScheme::kThreshold, kN}), 64u + 48u);
  EXPECT_EQ(Certificate::Genesis().WireSize(), 64u);
}

TEST_F(AuthWiringTest, UnstampedMessagesKeepLegacyByteSizes) {
  // Historical constants: Vote 160 + cert, NewView 200 + cert, Wish 112,
  // TC 48 + 96/sig. Genesis certs contribute their bare 64B header.
  VoteMsg vote(0);
  EXPECT_EQ(vote.WireSize(), 160u + 64u);
  NewViewMsg nv(0);
  EXPECT_EQ(nv.WireSize(), 200u + 64u);
  WishMsg wish(0);
  EXPECT_EQ(wish.WireSize(), 112u);
  TimeoutCertMsg tc(0);
  tc.sigs.resize(kQuorum);
  EXPECT_EQ(tc.WireSize(), 48u + kQuorum * 96u);
}

TEST_F(AuthWiringTest, StampAuthSwitchesMessageBytesToTheStampedScheme) {
  VoteMsg vote(0);
  vote.high_cert = MakeCert();
  const size_t vector_bytes = vote.WireSize();
  EXPECT_EQ(vector_bytes, 64u + 96u + 64u + kQuorum * 96u);

  // Stamping is const (the transport stamps shared_ptr<const> messages).
  const ConsensusMessage& as_const = vote;
  as_const.StampAuth(AuthSizeModel{CertScheme::kAggregate, kN});
  EXPECT_EQ(vote.WireSize(), 64u + 48u + 64u + 48u + 1u);
  EXPECT_LT(vote.WireSize(), vector_bytes);

  as_const.StampAuth(AuthSizeModel{CertScheme::kThreshold, kN});
  EXPECT_EQ(vote.WireSize(), 64u + 48u + 64u + 48u);

  TimeoutCertMsg tc(0);
  tc.sigs.resize(kQuorum);
  tc.StampAuth(AuthSizeModel{CertScheme::kAggregate, kN});
  EXPECT_EQ(tc.WireSize(), 48u + 48u + 1u);
}

TEST(AuthConfigTest, ConsensusConfigBindsSchemeAndCommitteeSize) {
  ConsensusConfig c;
  c.n = 512;  // f = 170
  c.cert_scheme = CertScheme::kAggregate;
  const AuthSizeModel m = c.auth_model();
  EXPECT_EQ(m.scheme, CertScheme::kAggregate);
  EXPECT_EQ(m.committee_n, 512u);
  EXPECT_EQ(m.CertBytes(c.quorum()), 48u + 64u);
}

}  // namespace
}  // namespace hotstuff1
