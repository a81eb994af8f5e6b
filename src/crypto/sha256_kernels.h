// SHA-256 compression kernels: the portable scalar reference and, on x86,
// a SHA-extensions (SHA-NI) kernel, plus the one-time dispatch between
// them. Internal to src/crypto: Sha256, HMAC and W-OTS go through
// compress_fn(); tests reach both kernels directly to cross-check them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace paai::crypto::detail {

using Sha256State = std::array<std::uint32_t, 8>;

/// FIPS 180-4 initial hash value H(0).
inline constexpr Sha256State kSha256Init = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

/// Folds `blocks` consecutive 64-byte blocks into `state`.
using CompressFn = void (*)(Sha256State& state, const std::uint8_t* data,
                            std::size_t blocks);

/// Portable reference kernel; every other kernel must match it bit for bit.
void compress_scalar(Sha256State& state, const std::uint8_t* data,
                     std::size_t blocks);

#if defined(__x86_64__) || defined(__i386__)
#define PAAI_SHA256_HAVE_SHANI 1
/// SHA-NI kernel. Call only when sha_ni_supported() is true.
void compress_shani(Sha256State& state, const std::uint8_t* data,
                    std::size_t blocks);
#endif

/// True when CPUID reports the SHA extensions (leaf 7 EBX bit 29) together
/// with SSE4.1 and SSSE3, which the SHA-NI kernel also uses. Always false
/// on non-x86 builds.
bool sha_ni_supported();

/// The kernel this process uses: SHA-NI when sha_ni_supported(), else the
/// scalar reference. Chosen once, on first call.
CompressFn compress_fn();

/// Writes the state as the 32-byte big-endian digest.
void store_digest(const Sha256State& state, std::uint8_t* out);

/// Replaces the 32 bytes at `value` with SHA-256(value), `steps` times.
/// Each step is one compression of a pre-padded block from the IV — the
/// W-OTS chaining function.
void hash32_iterate(std::uint8_t* value, std::size_t steps);

}  // namespace paai::crypto::detail
