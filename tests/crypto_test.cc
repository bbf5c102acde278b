// SHA-256 against FIPS 180-4 / NIST test vectors and across its compression
// kernels, plus the signature substrate's unforgeability-relevant behaviours.

#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "common/replica_set.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"
#include "crypto/signer.h"

namespace hotstuff1 {
namespace {

// --- SHA-256 known-answer tests -------------------------------------------------

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(Sha256::Digest("").ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::Digest("abc").ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      Sha256::Digest("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
          .ToHex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionA) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.Update(chunk);
  EXPECT_EQ(ctx.Finish().ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ExactBlockBoundary) {
  // 64-byte message exercises the padding-into-second-block path.
  const std::string m(64, 'x');
  EXPECT_EQ(Sha256::Digest(m).ToHex(), Sha256::Digest(m.data(), 64).ToHex());
  // 55/56/57 bytes straddle the length-field boundary.
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u}) {
    const std::string s(len, 'y');
    Sha256 one_shot;
    one_shot.Update(s);
    Sha256 split;
    split.Update(s.substr(0, len / 2));
    split.Update(s.substr(len / 2));
    EXPECT_EQ(one_shot.Finish().ToHex(), split.Finish().ToHex()) << len;
  }
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  Sha256 ctx;
  for (char c : msg) ctx.Update(&c, 1);
  EXPECT_EQ(ctx.Finish(), Sha256::Digest(msg));
}

TEST(Sha256Test, ResetReusesContext) {
  Sha256 ctx;
  ctx.Update("garbage");
  (void)ctx.Finish();
  ctx.Reset();
  ctx.Update("abc");
  EXPECT_EQ(ctx.Finish(), Sha256::Digest("abc"));
}

TEST(Sha256Test, UpdateU64IsLittleEndian) {
  Sha256 a, b;
  a.UpdateU64(0x0102030405060708ULL);
  const uint8_t bytes[8] = {8, 7, 6, 5, 4, 3, 2, 1};
  b.Update(bytes, 8);
  EXPECT_EQ(a.Finish(), b.Finish());
}

// --- Compression kernels ----------------------------------------------------------

using sha256_kernels::Kernel;

// SHA-256 of `msg` through `kernel` alone, independent of Sha256's buffering
// and padding: the test pads the message itself and hands the kernel runs of
// one to three whole blocks, so state carries across calls.
std::string DigestWith(Kernel kernel, const std::string& msg, std::mt19937* rng) {
  std::vector<uint8_t> padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const uint64_t bits = uint64_t{msg.size()} * 8;
  for (int i = 7; i >= 0; --i) padded.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  for (size_t done = 0, total = padded.size() / 64; done < total;) {
    const size_t run = std::min<size_t>(total - done, 1 + (*rng)() % 3);
    kernel(state, padded.data() + 64 * done, run);
    done += run;
  }
  Hash256 out;
  for (int i = 0; i < 32; ++i) {
    out.bytes[i] = static_cast<uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out.ToHex();
}

// Random messages of 0-1,100 bytes, plus the lengths around the padding and
// block boundaries.
std::vector<std::string> KernelTestMessages() {
  std::vector<size_t> lengths = {0, 55, 56, 57, 63, 64, 65, 119, 120, 1100};
  std::mt19937 rng(24);
  for (int i = 0; i < 400; ++i) lengths.push_back(rng() % 1101);
  std::vector<std::string> msgs;
  for (size_t len : lengths) {
    std::string m(len, '\0');
    for (char& c : m) c = static_cast<char>(rng());
    msgs.push_back(std::move(m));
  }
  return msgs;
}

TEST(Sha256KernelTest, ChunkedUpdatesMatchPortableKernel) {
  const Kernel active = sha256_kernels::ActiveKernel();
  std::cout << "[ kernels  ] Sha256 runs the "
            << (active == sha256_kernels::CompressPortable ? "portable" : "SHA-NI")
            << " kernel; reference: portable\n";
  std::mt19937 rng(7);
  ASSERT_EQ(DigestWith(sha256_kernels::CompressPortable, "abc", &rng),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  for (const std::string& msg : KernelTestMessages()) {
    const std::string expected = DigestWith(sha256_kernels::CompressPortable, msg, &rng);
    EXPECT_EQ(Sha256::Digest(msg).ToHex(), expected) << msg.size();
    Sha256 chunked;
    for (size_t at = 0; at < msg.size();) {
      const size_t take = std::min<size_t>(msg.size() - at, 1 + rng() % 70);
      chunked.Update(msg.data() + at, take);
      at += take;
    }
    EXPECT_EQ(chunked.Finish().ToHex(), expected) << msg.size();
  }
}

TEST(Sha256KernelTest, ShaNiMatchesPortableKernel) {
  const Kernel sha_ni = sha256_kernels::ShaNiKernel();
  if (sha_ni == nullptr) {
    GTEST_SKIP() << "no SHA extensions on this CPU (CPUID): SHA-NI kernel not tested";
  }
  std::cout << "[ kernels  ] SHA-NI checked against portable\n";
  EXPECT_EQ(sha256_kernels::ActiveKernel(), sha_ni);
  std::mt19937 rng(11);
  for (const std::string& msg : KernelTestMessages()) {
    EXPECT_EQ(DigestWith(sha_ni, msg, &rng),
              DigestWith(sha256_kernels::CompressPortable, msg, &rng))
        << msg.size();
  }
}

// --- Hash256 ---------------------------------------------------------------------

TEST(Hash256Test, ZeroDetection) {
  Hash256 z;
  EXPECT_TRUE(z.IsZero());
  z.bytes[31] = 1;
  EXPECT_FALSE(z.IsZero());
}

TEST(Hash256Test, OrderingAndPrefix) {
  const Hash256 a = Sha256::Digest("a");
  const Hash256 b = Sha256::Digest("b");
  EXPECT_NE(a, b);
  EXPECT_TRUE(a < b || b < a);
  EXPECT_NE(a.Prefix64(), b.Prefix64());
  EXPECT_EQ(a.Short().size(), 8u);
  EXPECT_EQ(a.ToHex().size(), 64u);
}

// --- Signer / KeyRegistry --------------------------------------------------------

TEST(SignerTest, SignVerifyRoundTrip) {
  KeyRegistry registry(4, 1);
  Signer signer(&registry, 2);
  const Hash256 digest = Sha256::Digest("vote payload");
  const Signature sig = signer.Sign(SignDomain::kProposeVote, digest);
  EXPECT_EQ(sig.signer, 2u);
  EXPECT_TRUE(registry.Verify(sig, SignDomain::kProposeVote, digest));
}

// MAC = SHA256(key || domain || digest) with key = SHA256("hs1-keygen" ||
// seed || id), integers little-endian, pinned byte for byte. Python's hashlib
// gives the same value.
TEST(SignerTest, MacKnownAnswer) {
  KeyRegistry registry(4, /*seed=*/1);
  const Signature sig =
      Signer(&registry, 2).Sign(SignDomain::kProposeVote, Sha256::Digest("vote payload"));
  EXPECT_EQ(sig.mac.ToHex(),
            "a0c22b62e79d3a97068b38bfbe3fe06d743c04e9ebabe0c0f947c4bad8f54ff1");
}

TEST(SignerTest, WrongDomainRejected) {
  KeyRegistry registry(4, 1);
  Signer signer(&registry, 0);
  const Hash256 digest = Sha256::Digest("payload");
  const Signature sig = signer.Sign(SignDomain::kProposeVote, digest);
  EXPECT_FALSE(registry.Verify(sig, SignDomain::kCommitVote, digest));
  EXPECT_FALSE(registry.Verify(sig, SignDomain::kNewView, digest));
}

TEST(SignerTest, WrongDigestRejected) {
  KeyRegistry registry(4, 1);
  Signer signer(&registry, 0);
  const Signature sig = signer.Sign(SignDomain::kWish, Sha256::Digest("a"));
  EXPECT_FALSE(registry.Verify(sig, SignDomain::kWish, Sha256::Digest("b")));
}

TEST(SignerTest, ForgedSignerIdRejected) {
  KeyRegistry registry(4, 1);
  Signer signer(&registry, 0);
  const Hash256 digest = Sha256::Digest("x");
  Signature sig = signer.Sign(SignDomain::kWish, digest);
  sig.signer = 1;  // claim another identity, keep the MAC
  EXPECT_FALSE(registry.Verify(sig, SignDomain::kWish, digest));
  sig.signer = 99;  // out of range
  EXPECT_FALSE(registry.Verify(sig, SignDomain::kWish, digest));
}

TEST(SignerTest, KeysDifferAcrossReplicasAndSeeds) {
  KeyRegistry r1(2, 1), r2(2, 2);
  const Hash256 digest = Sha256::Digest("m");
  const Signature s0 = Signer(&r1, 0).Sign(SignDomain::kWish, digest);
  const Signature s1 = Signer(&r1, 1).Sign(SignDomain::kWish, digest);
  EXPECT_NE(s0.mac, s1.mac);
  const Signature s0b = Signer(&r2, 0).Sign(SignDomain::kWish, digest);
  EXPECT_NE(s0.mac, s0b.mac);
}

TEST(SignerTest, QuorumVerification) {
  const uint32_t n = 7, f = 2, quorum = n - f;
  KeyRegistry registry(n, 3);
  const Hash256 digest = Sha256::Digest("block");
  std::vector<Signature> sigs;
  for (uint32_t i = 0; i < quorum; ++i) {
    sigs.push_back(Signer(&registry, i).Sign(SignDomain::kProposeVote, digest));
  }
  EXPECT_TRUE(registry.VerifyQuorum(sigs, SignDomain::kProposeVote, digest, quorum).ok());

  // Each failure is a non-OK status whose message names the cause.
  const auto expect_rejected = [&](const std::vector<Signature>& shares,
                                   const char* cause) {
    const Status st = registry.VerifyQuorum(shares, SignDomain::kProposeVote, digest, quorum);
    EXPECT_FALSE(st.ok()) << cause;
    EXPECT_NE(st.message().find(cause), std::string::npos) << st;
  };

  // Too few.
  std::vector<Signature> few(sigs.begin(), sigs.end() - 1);
  expect_rejected(few, "quorum too small");

  // Duplicate signer cannot substitute for a distinct one.
  std::vector<Signature> dup = few;
  dup.push_back(few[0]);
  expect_rejected(dup, "duplicate signer");

  // One corrupted share poisons the quorum.
  std::vector<Signature> bad = sigs;
  bad[1].mac.bytes[0] ^= 0xff;
  expect_rejected(bad, "invalid signature from replica");

  // A signer id with no key is an invalid signature, never a lookup: past n,
  // and past what a ReplicaSet holds.
  for (const ReplicaId stray_id : {n, ReplicaSet::kCapacity}) {
    std::vector<Signature> stray = sigs;
    stray[2].signer = stray_id;
    expect_rejected(stray, "invalid signature from replica");
  }
}

}  // namespace
}  // namespace hotstuff1
