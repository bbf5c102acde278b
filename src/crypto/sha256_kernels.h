// Internal to src/crypto and its tests: the SHA-256 compression kernels
// behind Sha256::ProcessBlocks. Everything else hashes through Sha256.

#ifndef HOTSTUFF1_CRYPTO_SHA256_KERNELS_H_
#define HOTSTUFF1_CRYPTO_SHA256_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace hotstuff1::sha256_kernels {

/// Compresses `count` consecutive 64-byte blocks into `state` (FIPS 180-4
/// §6.2.2). Every kernel computes the same function.
using Kernel = void (*)(uint32_t state[8], const uint8_t* blocks, size_t count);

/// The portable loop: the reference the other kernel is tested against, and
/// the only kernel on CPUs or architectures without SHA extensions.
void CompressPortable(uint32_t state[8], const uint8_t* blocks, size_t count);

/// The x86 SHA-NI kernel, or nullptr when this CPU (from CPUID) or the
/// target architecture has none.
Kernel ShaNiKernel();

/// The kernel Sha256 uses: SHA-NI where the CPU has it, else the portable
/// loop. Chosen once, on first use.
Kernel ActiveKernel();

}  // namespace hotstuff1::sha256_kernels

#endif  // HOTSTUFF1_CRYPTO_SHA256_KERNELS_H_
