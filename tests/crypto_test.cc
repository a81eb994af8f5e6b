// Crypto substrate tests: official test vectors for SHA-256 (FIPS 180-4 /
// NIST CAVS), HMAC-SHA256 (RFC 4231), ChaCha20 (RFC 8439), and SipHash-2-4
// (reference vectors from the SipHash paper), plus behavioural tests for
// the provider seam, key store, and keyed samplers. The SHA-256 kernel
// tests cross-check the SHA-NI kernel, the one-block padding and the
// fixed-32-byte chain step against the scalar reference.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "crypto/chacha20.h"
#include "crypto/hmac.h"
#include "crypto/keystore.h"
#include "crypto/provider.h"
#include "crypto/sampler.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"
#include "crypto/siphash.h"
#include "util/bytes.h"

namespace paai::crypto {
namespace {

std::string hex_digest(const Digest32& d) {
  return to_hex(ByteView(d.data(), d.size()));
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_digest(Sha256::digest({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  const Bytes msg = bytes_of("abc");
  EXPECT_EQ(hex_digest(Sha256::digest(ByteView(msg.data(), msg.size()))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  const Bytes msg =
      bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(hex_digest(Sha256::digest(ByteView(msg.data(), msg.size()))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(ByteView(chunk.data(), chunk.size()));
  EXPECT_EQ(hex_digest(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes msg = bytes_of("the quick brown fox jumps over the lazy dog");
  Sha256 h;
  for (std::size_t i = 0; i < msg.size(); ++i) {
    h.update(ByteView(msg.data() + i, 1));
  }
  EXPECT_EQ(h.finish(), Sha256::digest(ByteView(msg.data(), msg.size())));
}

TEST(Sha256, ExactBlockBoundary) {
  const Bytes msg(64, 0x61);
  EXPECT_EQ(hex_digest(Sha256::digest(ByteView(msg.data(), msg.size()))),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

// RFC 4231 test case 1.
TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Bytes msg = bytes_of("Hi There");
  const Digest32 tag = hmac_sha256(ByteView(key.data(), key.size()),
                                   ByteView(msg.data(), msg.size()));
  EXPECT_EQ(hex_digest(tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(Hmac, Rfc4231Case2) {
  const Bytes key = bytes_of("Jefe");
  const Bytes msg = bytes_of("what do ya want for nothing?");
  const Digest32 tag = hmac_sha256(ByteView(key.data(), key.size()),
                                   ByteView(msg.data(), msg.size()));
  EXPECT_EQ(hex_digest(tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3 (0xaa key, 0xdd data).
TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes msg(50, 0xdd);
  const Digest32 tag = hmac_sha256(ByteView(key.data(), key.size()),
                                   ByteView(msg.data(), msg.size()));
  EXPECT_EQ(hex_digest(tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 6: key longer than the block size.
TEST(Hmac, Rfc4231LongKey) {
  const Bytes key(131, 0xaa);
  const Bytes msg = bytes_of("Test Using Larger Than Block-Size Key - Hash Key First");
  const Digest32 tag = hmac_sha256(ByteView(key.data(), key.size()),
                                   ByteView(msg.data(), msg.size()));
  EXPECT_EQ(hex_digest(tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// RFC 4231 cases through one HmacSha256 per key, each key object tagging
// twice: the pad midstates must survive reuse.
TEST(Hmac, MidstateMatchesRfc4231) {
  struct Case {
    Bytes key;
    Bytes msg;
    const char* tag;
  };
  Bytes case4_key(25);
  for (std::size_t i = 0; i < case4_key.size(); ++i) {
    case4_key[i] = static_cast<std::uint8_t>(i + 1);
  }
  const Case cases[] = {
      {Bytes(20, 0x0b), bytes_of("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {bytes_of("Jefe"), bytes_of("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(20, 0xaa), Bytes(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {case4_key, Bytes(50, 0xcd),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {Bytes(131, 0xaa),
       bytes_of("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {Bytes(131, 0xaa),
       bytes_of("This is a test using a larger than block-size key and a "
                "larger than block-size data. The key needs to be hashed "
                "before being used by the HMAC algorithm."),
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (const Case& c : cases) {
    const HmacSha256 mac(ByteView(c.key.data(), c.key.size()));
    const ByteView msg(c.msg.data(), c.msg.size());
    EXPECT_EQ(hex_digest(mac.tag(msg)), c.tag);
    EXPECT_EQ(hex_digest(mac.tag(msg)), c.tag);
    EXPECT_EQ(hex_digest(hmac_sha256(ByteView(c.key.data(), c.key.size()),
                                     msg)),
              c.tag);
  }
}

// Known-answer pins recorded from the original single-path implementation
// (per-byte padding, scalar compression, no midstates): key byte i is
// 3i+1, message byte i is 7i+5. Lengths straddle the pad and block edges.
TEST(Hmac, KnownAnswerPins) {
  struct Pin {
    std::size_t key_len;
    std::size_t msg_len;
    const char* tag;
  };
  const Pin pins[] = {
      {0, 0, "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad"},
      {32, 9, "a137291866fc16808a06b112a9df13d27006a790975106b4fe056b80770e17a3"},
      {32, 55, "0c5db2902b9572b7e0414ac63fd9b2910f160fc75c9e8bc6940f7dc5be9ad355"},
      {32, 56, "4d7a80c2f5e66a6311e6977c72e26f002b0f71f499efebf8cb291b7e9d9e81c5"},
      {32, 64, "7c49961ad2027b8fb8fa73ec3fbce285be194ff0e1b14dceb7a684fbcef72a4d"},
      {64, 200, "a94ecbedd87d4fa8152c0a5af463e1602b6b3f0a799534cb64d8926fcc1b841e"},
      {65, 0, "e31ef03f320a872a66745a4dc37b38db1cdfd9052b357ff06184a5c3c1b32858"},
      {65, 200, "c50f1d1bf9c280845b9d28ed5b6ef407c60c9539d3cb183327cbcff60665dfa4"},
  };
  for (const Pin& p : pins) {
    Bytes key(p.key_len), msg(p.msg_len);
    for (std::size_t i = 0; i < key.size(); ++i) {
      key[i] = static_cast<std::uint8_t>(3 * i + 1);
    }
    for (std::size_t i = 0; i < msg.size(); ++i) {
      msg[i] = static_cast<std::uint8_t>(7 * i + 5);
    }
    EXPECT_EQ(hex_digest(hmac_sha256(ByteView(key.data(), key.size()),
                                     ByteView(msg.data(), msg.size()))),
              p.tag)
        << "key " << p.key_len << " msg " << p.msg_len;
  }
}

// SHA-256 with textbook padding (0x80, zeros, 64-bit length appended to a
// copy of the message) over the scalar kernel: the reference the streaming
// one-block padding must match.
Digest32 reference_digest(const Bytes& msg) {
  Bytes padded = msg;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0x00);
  const std::uint64_t bits = 8 * static_cast<std::uint64_t>(msg.size());
  for (int i = 0; i < 8; ++i) {
    padded.push_back(static_cast<std::uint8_t>(bits >> (56 - 8 * i)));
  }
  detail::Sha256State state = detail::kSha256Init;
  detail::compress_scalar(state, padded.data(), padded.size() / 64);
  Digest32 out;
  detail::store_digest(state, out.data());
  return out;
}

TEST(Sha256Kernels, ShaNiMatchesScalar) {
#if defined(PAAI_SHA256_HAVE_SHANI)
  if (!detail::sha_ni_supported()) {
    GTEST_SKIP() << "CPU lacks SHA-NI";
  }
  std::mt19937_64 rng(20260417);
  std::uint8_t blocks[4 * 64];
  for (int trial = 0; trial < 10000; ++trial) {
    detail::Sha256State state;
    for (auto& w : state) w = static_cast<std::uint32_t>(rng());
    for (auto& b : blocks) b = static_cast<std::uint8_t>(rng());
    // Mostly single blocks (the W-OTS shape), some multi-block runs.
    const std::size_t n = trial % 8 == 0 ? 1 + rng() % 4 : 1;
    detail::Sha256State scalar = state;
    detail::Sha256State shani = state;
    detail::compress_scalar(scalar, blocks, n);
    detail::compress_shani(shani, blocks, n);
    ASSERT_EQ(scalar, shani) << "trial " << trial << " blocks " << n;
  }
#else
  GTEST_SKIP() << "not an x86 build";
#endif
}

TEST(Sha256Kernels, DispatchPicksShaNiExactlyWhenSupported) {
#if defined(PAAI_SHA256_HAVE_SHANI)
  EXPECT_EQ(detail::compress_fn() == &detail::compress_shani,
            detail::sha_ni_supported());
#else
  EXPECT_EQ(detail::compress_fn(), &detail::compress_scalar);
#endif
}

// Every length 0..300 (so every padding case, 55/56/63/64 included), fed
// in three pieces at random split points, against the textbook reference.
TEST(Sha256Kernels, IncrementalMatchesReferenceAllLengths) {
  std::mt19937_64 rng(7);
  for (std::size_t len = 0; len <= 300; ++len) {
    Bytes msg(len);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng());
    const Digest32 expected = reference_digest(msg);
    ASSERT_EQ(Sha256::digest(ByteView(msg.data(), msg.size())), expected)
        << "one-shot, length " << len;
    std::size_t a = len == 0 ? 0 : rng() % (len + 1);
    std::size_t b = len == 0 ? 0 : rng() % (len + 1);
    if (a > b) std::swap(a, b);
    Sha256 h;
    h.update(ByteView(msg.data(), a));
    h.update(ByteView(msg.data() + a, b - a));
    h.update(ByteView(msg.data() + b, len - b));
    ASSERT_EQ(h.finish(), expected)
        << "length " << len << " split " << a << "/" << b;
  }
}

TEST(Sha256Kernels, Hash32MatchesDigest) {
  std::mt19937_64 rng(32);
  for (std::size_t steps = 0; steps <= 16; ++steps) {
    Digest32 value;
    for (auto& b : value) b = static_cast<std::uint8_t>(rng());
    Digest32 expected = value;
    for (std::size_t s = 0; s < steps; ++s) {
      expected = Sha256::digest(ByteView(expected.data(), expected.size()));
    }
    detail::hash32_iterate(value.data(), steps);
    EXPECT_EQ(value, expected) << "steps " << steps;
  }
}

// RFC 8439 §2.3.2 block function test vector.
TEST(ChaCha20, Rfc8439BlockVector) {
  Key256 key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  Nonce96 nonce{0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const auto block = chacha20_block(key, nonce, 1);
  EXPECT_EQ(to_hex(ByteView(block.data(), 16)),
            "10f1e7e4d13b5915500fdd1fa32071c4");
  EXPECT_EQ(to_hex(ByteView(block.data() + 48, 16)),
            "b5129cd1de164eb9cbd083e8a2503c4e");
}

// RFC 8439 §2.4.2 encryption test vector.
TEST(ChaCha20, Rfc8439EncryptionVector) {
  Key256 key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  Nonce96 nonce{0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const Bytes plaintext = bytes_of(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  const Bytes ct =
      chacha20_xor(key, nonce, 1, ByteView(plaintext.data(), plaintext.size()));
  EXPECT_EQ(to_hex(ByteView(ct.data(), 16)), "6e2e359a2568f98041ba0728dd0d6981");
  // Round trip.
  const Bytes pt = chacha20_xor(key, nonce, 1, ByteView(ct.data(), ct.size()));
  EXPECT_EQ(pt, plaintext);
}

// SipHash-2-4 reference vectors (key 000102..0f, messages 00,01,02,...).
TEST(SipHash, ReferenceVectors) {
  Key128 key;
  for (int i = 0; i < 16; ++i) key[i] = static_cast<std::uint8_t>(i);
  const std::uint64_t expected[] = {
      0x726fdb47dd0e0e31ULL, 0x74f839c593dc67fdULL, 0x0d6c8009d9a94f5aULL,
      0x85676696d7fb7e2dULL, 0xcf2794e0277187b7ULL, 0x18765564cd99a68dULL,
      0xcbc9466e58fee3ceULL, 0xab0200f58b01d137ULL, 0x93f5f5799a932462ULL,
  };
  Bytes msg;
  for (int len = 0; len < 9; ++len) {
    EXPECT_EQ(siphash24(key, ByteView(msg.data(), msg.size())), expected[len])
        << "length " << len;
    msg.push_back(static_cast<std::uint8_t>(len));
  }
}

TEST(Provider, MacVerifyRoundTrip) {
  for (const auto kind : {CryptoKind::kReal, CryptoKind::kFast}) {
    const auto crypto = make_crypto(kind);
    const Key key = test_master_key(7);
    const Bytes msg = bytes_of("attack at dawn");
    const Mac tag = crypto->mac(key, ByteView(msg.data(), msg.size()));
    EXPECT_TRUE(crypto->verify_mac(key, ByteView(msg.data(), msg.size()), tag));
    Mac bad = tag;
    bad[0] ^= 1;
    EXPECT_FALSE(
        crypto->verify_mac(key, ByteView(msg.data(), msg.size()), bad));
    // Different key must not verify.
    const Key other = test_master_key(8);
    EXPECT_FALSE(
        crypto->verify_mac(other, ByteView(msg.data(), msg.size()), tag));
  }
}

TEST(Provider, EncryptDecryptRoundTrip) {
  for (const auto kind : {CryptoKind::kReal, CryptoKind::kFast}) {
    const auto crypto = make_crypto(kind);
    const Key key = test_master_key(11);
    for (std::size_t len : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u, 300u}) {
      Bytes pt(len);
      for (std::size_t i = 0; i < len; ++i) pt[i] = static_cast<std::uint8_t>(i);
      const Bytes ct = crypto->encrypt(key, 42, ByteView(pt.data(), pt.size()));
      EXPECT_EQ(ct.size(), pt.size());
      if (len > 2) EXPECT_NE(ct, pt);
      EXPECT_EQ(crypto->decrypt(key, 42, ByteView(ct.data(), ct.size())), pt);
      // Wrong nonce decrypts to garbage (not the plaintext) for len > 8.
      if (len > 8) {
        EXPECT_NE(crypto->decrypt(key, 43, ByteView(ct.data(), ct.size())), pt);
      }
    }
  }
}

TEST(KeyStore, DerivesDistinctPerNodeKeys) {
  const KeyStore ks(test_master_key(1), 6);
  for (std::size_t i = 1; i <= 6; ++i) {
    for (std::size_t j = i + 1; j <= 6; ++j) {
      EXPECT_NE(ks.node_key(i), ks.node_key(j));
    }
    EXPECT_NE(ks.node_key(i), ks.source_sampling_key());
    EXPECT_NE(ks.node_key(i), ks.fl_sampling_key(i));
  }
  EXPECT_EQ(ks.destination_key(), ks.node_key(6));
  EXPECT_THROW(ks.node_key(0), std::out_of_range);
  EXPECT_THROW(ks.node_key(7), std::out_of_range);
}

TEST(KeyStore, DeterministicAcrossInstances) {
  const KeyStore a(test_master_key(5), 4);
  const KeyStore b(test_master_key(5), 4);
  for (std::size_t i = 1; i <= 4; ++i) EXPECT_EQ(a.node_key(i), b.node_key(i));
  const KeyStore c(test_master_key(6), 4);
  EXPECT_NE(a.node_key(1), c.node_key(1));
}

TEST(SecureSampler, RateConcentratesAroundP) {
  const auto crypto = make_real_crypto();
  const Key key = test_master_key(3);
  const double p = 1.0 / 36.0;
  const SecureSampler sampler(*crypto, key, p);
  const int trials = 20000;
  int hits = 0;
  for (int i = 0; i < trials; ++i) {
    std::uint8_t id[16] = {};
    for (int b = 0; b < 4; ++b) id[b] = static_cast<std::uint8_t>(i >> (8 * b));
    if (sampler.sampled(ByteView(id, sizeof(id)))) ++hits;
  }
  const double rate = static_cast<double>(hits) / trials;
  EXPECT_NEAR(rate, p, 4.0 * std::sqrt(p * (1 - p) / trials));
}

TEST(SecureSampler, DegenerateProbabilities) {
  const auto crypto = make_fast_crypto();
  const Key key = test_master_key(3);
  const SecureSampler never(*crypto, key, 0.0);
  const SecureSampler always(*crypto, key, 1.0);
  const Bytes id = bytes_of("0123456789abcdef");
  EXPECT_FALSE(never.sampled(ByteView(id.data(), id.size())));
  EXPECT_TRUE(always.sampled(ByteView(id.data(), id.size())));
}

TEST(SelectionPredicate, DestinationAlwaysFires) {
  const auto crypto = make_fast_crypto();
  const KeyStore ks(test_master_key(2), 6);
  const Bytes challenge = bytes_of("challenge-xyz");
  EXPECT_TRUE(selection_predicate(*crypto, ks.node_key(6),
                                  ByteView(challenge.data(), challenge.size()),
                                  6, 6));
}

TEST(SelectionPredicate, SelectedNodeIsUniform) {
  const auto crypto = make_fast_crypto();
  const std::size_t d = 6;
  const KeyStore ks(test_master_key(9), d);
  std::vector<Key> keys(d + 1);
  for (std::size_t i = 1; i <= d; ++i) keys[i] = ks.node_key(i);

  std::vector<std::uint64_t> histogram(d, 0);
  const int trials = 60000;
  for (int t = 0; t < trials; ++t) {
    std::uint8_t challenge[8];
    for (int b = 0; b < 8; ++b) {
      challenge[b] = static_cast<std::uint8_t>(
          (static_cast<std::uint64_t>(t) * 2654435761u) >> (8 * b));
    }
    const std::size_t e =
        selected_node(*crypto, keys, ByteView(challenge, 8), d);
    ASSERT_GE(e, 1u);
    ASSERT_LE(e, d);
    ++histogram[e - 1];
  }
  // Chi-square with d-1 = 5 dof; 99.9% critical value ~20.5. Deterministic
  // inputs, so no flakiness.
  double stat = 0.0;
  const double expected = static_cast<double>(trials) / d;
  for (const auto c : histogram) {
    const double diff = static_cast<double>(c) - expected;
    stat += diff * diff / expected;
  }
  EXPECT_LT(stat, 20.5) << "selection not uniform";
}

TEST(DeriveKey, SeparatesLabelsAndIndices) {
  const Key master = test_master_key(1);
  const Bytes l1 = bytes_of("label-a");
  const Bytes l2 = bytes_of("label-b");
  const Key a = derive_key(master, ByteView(l1.data(), l1.size()), 0);
  const Key b = derive_key(master, ByteView(l2.data(), l2.size()), 0);
  const Key c = derive_key(master, ByteView(l1.data(), l1.size()), 1);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
}

}  // namespace
}  // namespace paai::crypto
