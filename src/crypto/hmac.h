// HMAC-SHA256 (RFC 2104 / FIPS 198-1), built on our SHA-256.
//
// This is both the MAC ([m]_K in the paper) and — truncated — the keyed PRF
// used for secure sampling and the PAAI-2 selection predicate.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/sha256.h"
#include "util/bytes.h"

namespace paai::crypto {

/// HMAC-SHA256 under one key, with the ipad and opad blocks absorbed once
/// at construction. Each tag() then costs the message's compressions plus
/// one for the outer hash, instead of two more for the pads — the W-OTS
/// chain heads (67 tags per key) lean on this.
class HmacSha256 {
 public:
  explicit HmacSha256(ByteView key);

  /// Full 32-byte tag of `message`.
  Digest32 tag(ByteView message) const;

 private:
  Sha256 inner_;  // midstate after the ipad block
  Sha256 outer_;  // midstate after the opad block
};

/// Full 32-byte HMAC-SHA256 tag.
Digest32 hmac_sha256(ByteView key, ByteView message);

/// First 8 bytes of the tag as a big-endian u64 — a PRF output usable for
/// sampling decisions.
std::uint64_t hmac_prf_u64(ByteView key, ByteView message);

}  // namespace paai::crypto
