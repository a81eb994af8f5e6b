// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used as the collision-resistant hash h of the paper: packet identifiers
// H(m) are (truncated) SHA-256 digests, and HMAC-SHA256 provides the MAC and
// PRF the protocols rely on. Verified against NIST test vectors in
// tests/crypto_test.cc.
//
// Compression dispatch: the process uses the x86 SHA-extensions kernel when
// CPUID reports SHA-NI (with SSE4.1 and SSSE3), and otherwise the portable
// scalar kernel, which stays the reference the SHA-NI kernel is tested
// against. The choice is made once, on first use; there is no flag, env
// var or build option. Digests are identical either way
// (crypto/sha256_kernels.h).
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace paai::crypto {

using Digest32 = std::array<std::uint8_t, 32>;

class Sha256 {
 public:
  Sha256();

  /// Absorbs more input; may be called repeatedly.
  void update(ByteView data);

  /// Finalizes and returns the digest. The object must not be reused
  /// afterwards without calling reset(). Copying an object mid-stream
  /// keeps its midstate (HMAC pads absorbed once, see hmac.h).
  Digest32 finish();

  void reset();

  /// One-shot convenience.
  static Digest32 digest(ByteView data);

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace paai::crypto
