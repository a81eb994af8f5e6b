#include "crypto/wots.h"

#include <cstring>

#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"
#include "obs/profile.h"

namespace paai::crypto {

namespace {

/// Base-16 digits of H(message) plus the 3-digit checksum.
std::array<std::uint8_t, kWotsChains> digits_of(ByteView message) {
  const Digest32 digest = Sha256::digest(message);
  std::array<std::uint8_t, kWotsChains> digits{};
  for (std::size_t i = 0; i < 32; ++i) {
    digits[2 * i] = digest[i] >> 4;
    digits[2 * i + 1] = digest[i] & 0x0f;
  }
  std::uint32_t checksum = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    checksum += kWotsDepth - digits[i];
  }
  digits[64] = static_cast<std::uint8_t>((checksum >> 8) & 0x0f);
  digits[65] = static_cast<std::uint8_t>((checksum >> 4) & 0x0f);
  digits[66] = static_cast<std::uint8_t>(checksum & 0x0f);
  return digits;
}

/// Secret chain head for (key index, chain): HMAC under the seed, whose
/// pad midstates `seed_mac` holds for the whole sign/keygen call.
Digest32 chain_head(const HmacSha256& seed_mac, std::uint64_t index,
                    std::size_t chain) {
  std::array<std::uint8_t, 9> input{};
  for (int i = 0; i < 8; ++i) {
    input[i] = static_cast<std::uint8_t>(index >> (56 - 8 * i));
  }
  input[8] = static_cast<std::uint8_t>(chain);
  return seed_mac.tag(ByteView(input.data(), input.size()));
}

}  // namespace

// W-OTS calls bypass CryptoProvider, so each opens its own kCrypto scope
// for the phase profiler.

WotsPublicKey wots_public_key(const Key& seed, std::uint64_t index) {
  const obs::ScopedPhase phase(obs::Phase::kCrypto);
  const HmacSha256 seed_mac(ByteView(seed.data(), seed.size()));
  std::array<std::uint8_t, kWotsSignatureSize> ends{};
  for (std::size_t c = 0; c < kWotsChains; ++c) {
    const Digest32 head = chain_head(seed_mac, index, c);
    std::memcpy(ends.data() + 32 * c, head.data(), 32);
    detail::hash32_iterate(ends.data() + 32 * c, kWotsDepth);
  }
  return Sha256::digest(ByteView(ends.data(), ends.size()));
}

Bytes wots_sign(const Key& seed, std::uint64_t index, ByteView message) {
  const obs::ScopedPhase phase(obs::Phase::kCrypto);
  const HmacSha256 seed_mac(ByteView(seed.data(), seed.size()));
  const auto digits = digits_of(message);
  Bytes signature(kWotsSignatureSize);
  for (std::size_t c = 0; c < kWotsChains; ++c) {
    const Digest32 head = chain_head(seed_mac, index, c);
    std::memcpy(signature.data() + 32 * c, head.data(), 32);
    detail::hash32_iterate(signature.data() + 32 * c, digits[c]);
  }
  return signature;
}

bool wots_verify(const WotsPublicKey& pk, ByteView message,
                 ByteView signature) {
  const obs::ScopedPhase phase(obs::Phase::kCrypto);
  if (signature.size() != kWotsSignatureSize) return false;
  const auto digits = digits_of(message);
  std::array<std::uint8_t, kWotsSignatureSize> ends{};
  std::memcpy(ends.data(), signature.data(), ends.size());
  for (std::size_t c = 0; c < kWotsChains; ++c) {
    detail::hash32_iterate(ends.data() + 32 * c, kWotsDepth - digits[c]);
  }
  const WotsPublicKey computed =
      Sha256::digest(ByteView(ends.data(), ends.size()));
  return ct_equal(ByteView(computed.data(), computed.size()),
                  ByteView(pk.data(), pk.size()));
}

}  // namespace paai::crypto
