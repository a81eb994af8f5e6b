#include "crypto/sha256.h"

#include <cstring>

#include "crypto/sha256_kernels.h"

#if defined(PAAI_SHA256_HAVE_SHANI)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace paai::crypto {

namespace detail {

namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kK = {
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

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void compress_block_scalar(Sha256State& state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
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

}  // namespace

void compress_scalar(Sha256State& state, const std::uint8_t* data,
                     std::size_t blocks) {
  for (std::size_t i = 0; i < blocks; ++i) {
    compress_block_scalar(state, data + 64 * i);
  }
}

#if defined(PAAI_SHA256_HAVE_SHANI)

// The state lives in two registers as (A,B,E,F) and (C,D,G,H), the layout
// sha256rnds2 expects. Each of the 16 groups runs four rounds (two
// rnds2) and advances the message schedule: msg[] holds the last four
// 4-word slices of W, msg1/msg2 extend it four words at a time.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_shani(
    Sha256State& state, const std::uint8_t* data, std::size_t blocks) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i cdgh =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);             // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);           // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);   // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);        // CDGH

  for (std::size_t b = 0; b < blocks; ++b, data += 64) {
    const __m128i abef_save = abef;
    const __m128i cdgh_save = cdgh;
    __m128i msg[4] = {};
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g < 4) {
        msg[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            kByteSwap);
      }
      __m128i wk = _mm_add_epi32(
          msg[g & 3],
          _mm_load_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (g >= 3 && g <= 14) {
        // W[4g+4 .. 4g+7] from the pending msg1 term, W[t-7] and W[t-2].
        __m128i& next = msg[(g + 1) & 3];
        next = _mm_add_epi32(
            next, _mm_alignr_epi8(msg[g & 3], msg[(g - 1) & 3], 4));
        next = _mm_sha256msg2_epu32(next, msg[g & 3]);
      }
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
      if (g >= 1 && g <= 12) {
        msg[(g - 1) & 3] = _mm_sha256msg1_epu32(msg[(g - 1) & 3], msg[g & 3]);
      }
    }
    abef = _mm_add_epi32(abef, abef_save);
    cdgh = _mm_add_epi32(cdgh, cdgh_save);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);            // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);           // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xF0);        // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);           // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), cdgh);
}

bool sha_ni_supported() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return sha && sse41 && ssse3;
}

#else

bool sha_ni_supported() { return false; }

#endif

CompressFn compress_fn() {
  // A function-local static: initialised on first use, so no other
  // static initialiser can observe it unset.
  static const CompressFn fn = [] {
#if defined(PAAI_SHA256_HAVE_SHANI)
    if (sha_ni_supported()) return &compress_shani;
#endif
    return &compress_scalar;
  }();
  return fn;
}

void store_digest(const Sha256State& state, std::uint8_t* out) {
  for (int i = 0; i < 8; ++i) {
    out[4 * i + 0] = static_cast<std::uint8_t>(state[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
  }
}

void hash32_iterate(std::uint8_t* value, std::size_t steps) {
  if (steps == 0) return;
  const CompressFn compress = compress_fn();
  // value || 0x80 || zeros || 256 as a 64-bit big-endian bit length.
  std::uint8_t block[64] = {};
  std::memcpy(block, value, 32);
  block[32] = 0x80;
  block[62] = 0x01;
  for (std::size_t s = 0; s < steps; ++s) {
    Sha256State state = kSha256Init;
    compress(state, block, 1);
    store_digest(state, block);
  }
  std::memcpy(value, block, 32);
}

}  // namespace detail

Sha256::Sha256() { reset(); }

void Sha256::reset() {
  state_ = detail::kSha256Init;
  buffered_ = 0;
  total_bytes_ = 0;
}

void Sha256::update(ByteView data) {
  if (data.empty()) return;
  const detail::CompressFn compress = detail::compress_fn();
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t need = 64 - buffered_;
    const std::size_t take = std::min(need, data.size());
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset += take;
    if (buffered_ == 64) {
      compress(state_, buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  const std::size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    compress(state_, data.data() + offset, blocks);
    offset += 64 * blocks;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Digest32 Sha256::finish() {
  const detail::CompressFn compress = detail::compress_fn();
  const std::uint64_t bit_len = total_bytes_ * 8;
  // update() never leaves a full buffer, so the 0x80 always fits.
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, 64 - buffered_);
    compress(state_, buffer_.data(), 1);
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress(state_, buffer_.data(), 1);
  buffered_ = 0;

  Digest32 out;
  detail::store_digest(state_, out.data());
  return out;
}

Digest32 Sha256::digest(ByteView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace paai::crypto
