#include "crypto/sha256.h"

#include <cstring>

#include "crypto/sha256_kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#define HS1_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace hotstuff1 {

namespace sha256_kernels {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#ifdef HS1_SHA256_X86
// SHA-NI keeps the eight state words in two registers, ABEF and CDGH (lanes
// named high to low). Only these functions are built for SHA-NI; the rest of
// the program keeps its baseline target flags.
#define HS1_SHA_NI __attribute__((target("sha,sse4.1,ssse3")))

// Rounds 4g..4g+3 over the message words `w` = W[4g..4g+3]. Each
// sha256rnds2 runs two rounds and turns ABEF into the next CDGH.
HS1_SHA_NI inline void FourRounds(__m128i& abef, __m128i& cdgh, __m128i w, int g) {
  const __m128i wk =
      _mm_add_epi32(w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// The next four schedule words W[t..t+3] = s1(W[t-2]) + W[t-7] + s0(W[t-15])
// + W[t-16], from the sixteen before them, oldest first.
HS1_SHA_NI inline __m128i NextWords(__m128i w16, __m128i w12, __m128i w8, __m128i w4) {
  const __m128i sum =
      _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8(w4, w8, 4));
  return _mm_sha256msg2_epu32(sum, w4);
}

// Four message words, big-endian, from `p`.
HS1_SHA_NI inline __m128i LoadWords(const uint8_t* p) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), byte_swap);
}

HS1_SHA_NI void CompressShaNi(uint32_t state[8], const uint8_t* blocks, size_t count) {
  const __m128i cdab =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w0 = LoadWords(blocks), w1 = LoadWords(blocks + 16),
            w2 = LoadWords(blocks + 32), w3 = LoadWords(blocks + 48);
    FourRounds(abef, cdgh, w0, 0);
    FourRounds(abef, cdgh, w1, 1);
    FourRounds(abef, cdgh, w2, 2);
    FourRounds(abef, cdgh, w3, 3);
    for (int g = 4; g < 16; g += 4) {
      w0 = NextWords(w0, w1, w2, w3);
      FourRounds(abef, cdgh, w0, g);
      w1 = NextWords(w1, w2, w3, w0);
      FourRounds(abef, cdgh, w1, g + 1);
      w2 = NextWords(w2, w3, w0, w1);
      FourRounds(abef, cdgh, w2, g + 2);
      w3 = NextWords(w3, w0, w1, w2);
      FourRounds(abef, cdgh, w3, g + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}
#endif  // HS1_SHA256_X86

}  // namespace

void CompressPortable(uint32_t state[8], const uint8_t* blocks, size_t count) {
  for (; count > 0; --count, blocks += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Kernel ShaNiKernel() {
#ifdef HS1_SHA256_X86
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return nullptr;
  const bool ssse3 = (ecx >> 9) & 1;
  const bool sse41 = (ecx >> 19) & 1;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return nullptr;
  const bool sha = (ebx >> 29) & 1;
  return ssse3 && sse41 && sha ? CompressShaNi : nullptr;
#else
  return nullptr;
#endif
}

Kernel ActiveKernel() {
  // A function-local static: hashing may run from another translation unit's
  // static initializer, before any namespace-scope one here has run.
  static const Kernel kernel = [] {
    const Kernel sha_ni = ShaNiKernel();
    return sha_ni != nullptr ? sha_ni : CompressPortable;
  }();
  return kernel;
}

}  // namespace sha256_kernels

void Sha256::Reset() {
  h_[0] = 0x6a09e667;
  h_[1] = 0xbb67ae85;
  h_[2] = 0x3c6ef372;
  h_[3] = 0xa54ff53a;
  h_[4] = 0x510e527f;
  h_[5] = 0x9b05688c;
  h_[6] = 0x1f83d9ab;
  h_[7] = 0x5be0cd19;
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha256::ProcessBlocks(const uint8_t* data, size_t count) {
  sha256_kernels::ActiveKernel()(h_, data, count);
}

void Sha256::Update(const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  total_len_ += len;
  if (buffer_len_ > 0) {
    const size_t want = 64 - buffer_len_;
    const size_t take = len < want ? len : want;
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ < 64) return;
    ProcessBlocks(buffer_, 1);
    buffer_len_ = 0;
  }
  if (len >= 64) {
    const size_t blocks = len / 64;
    ProcessBlocks(p, blocks);
    p += 64 * blocks;
    len -= 64 * blocks;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

Hash256 Sha256::Finish() {
  // Padding in place: 0x80, zeros, then the 64-bit big-endian bit length at
  // the end of the last block, which is the second block of buffer_ when
  // fewer than 9 bytes of the first are free.
  const size_t end = buffer_len_ < 56 ? 64 : 128;
  buffer_[buffer_len_] = 0x80;
  std::memset(buffer_ + buffer_len_ + 1, 0, end - 8 - (buffer_len_ + 1));
  const uint64_t bit_len = total_len_ * 8;
  for (int i = 0; i < 8; ++i) {
    buffer_[end - 1 - i] = static_cast<uint8_t>(bit_len >> (8 * i));
  }
  ProcessBlocks(buffer_, end / 64);

  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    out.bytes[4 * i] = static_cast<uint8_t>(h_[i] >> 24);
    out.bytes[4 * i + 1] = static_cast<uint8_t>(h_[i] >> 16);
    out.bytes[4 * i + 2] = static_cast<uint8_t>(h_[i] >> 8);
    out.bytes[4 * i + 3] = static_cast<uint8_t>(h_[i]);
  }
  return out;
}

Hash256 Sha256::Digest(const void* data, size_t len) {
  Sha256 ctx;
  ctx.Update(data, len);
  return ctx.Finish();
}

}  // namespace hotstuff1
