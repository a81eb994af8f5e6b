#include "crypto/hmac.h"

#include <cstring>

namespace paai::crypto {

HmacSha256::HmacSha256(ByteView key) {
  constexpr std::size_t kBlock = 64;
  std::array<std::uint8_t, kBlock> k{};
  if (key.size() > kBlock) {
    const Digest32 kd = Sha256::digest(key);
    std::memcpy(k.data(), kd.data(), kd.size());
  } else if (!key.empty()) {
    std::memcpy(k.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, kBlock> ipad, opad;
  for (std::size_t i = 0; i < kBlock; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }
  inner_.update(ByteView(ipad.data(), kBlock));
  outer_.update(ByteView(opad.data(), kBlock));
}

Digest32 HmacSha256::tag(ByteView message) const {
  Sha256 inner = inner_;
  inner.update(message);
  const Digest32 inner_digest = inner.finish();

  Sha256 outer = outer_;
  outer.update(ByteView(inner_digest.data(), inner_digest.size()));
  return outer.finish();
}

Digest32 hmac_sha256(ByteView key, ByteView message) {
  return HmacSha256(key).tag(message);
}

std::uint64_t hmac_prf_u64(ByteView key, ByteView message) {
  const Digest32 t = hmac_sha256(key, message);
  std::uint64_t out = 0;
  for (int i = 0; i < 8; ++i) out = (out << 8) | t[i];
  return out;
}

}  // namespace paai::crypto
