// Onion-report property tests: for every path length and every break
// position, verification pinpoints exactly the first dishonest hop —
// truncation, tampering, layer substitution, and reordering all stop the
// valid prefix at the right place. These properties are what make the
// full-ack / PAAI-1 blame assignment secure (§4).
#include <gtest/gtest.h>

#include <tuple>

#include "util/rng.h"

#include "crypto/keystore.h"
#include "crypto/provider.h"
#include "net/onion.h"
#include "net/packet.h"
#include "util/wire.h"

namespace paai::net {
namespace {

using crypto::Key;
using crypto::KeyStore;

struct Fixture {
  std::unique_ptr<crypto::CryptoProvider> crypto = crypto::make_real_crypto();
  std::size_t d;
  KeyStore keys;
  std::vector<Key> key_vec;

  explicit Fixture(std::size_t path_len)
      : d(path_len), keys(crypto::test_master_key(7), path_len),
        key_vec(path_len + 1) {
    for (std::size_t i = 1; i <= d; ++i) key_vec[i] = keys.node_key(i);
  }

  Bytes report_for(std::size_t i) const {
    WireWriter w;
    w.u8(static_cast<std::uint8_t>(i));
    w.u32(0xfeedf00d);
    return std::move(w).take();
  }

  /// Builds the onion that nodes origin..1 would produce.
  Bytes build(std::size_t origin) const {
    Bytes r = report_for(origin);
    Bytes onion = onion_originate(*crypto, key_vec[origin],
                                  static_cast<std::uint8_t>(origin),
                                  ByteView(r.data(), r.size()));
    for (std::size_t i = origin; i-- > 1;) {
      const Bytes ri = report_for(i);
      onion = onion_wrap(*crypto, key_vec[i], static_cast<std::uint8_t>(i),
                         ByteView(ri.data(), ri.size()),
                         ByteView(onion.data(), onion.size()));
    }
    return onion;
  }

  OnionVerifyResult verify(ByteView onion) const {
    return onion_verify(*crypto, key_vec, d, onion,
                        [this](std::uint8_t i, ByteView r) {
                          return r.size() == 5 && r[0] == i;
                        });
  }
};

class OnionOrigin : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OnionOrigin, ValidOnionReportsOrigin) {
  const auto [d, origin] = GetParam();
  if (origin > d) GTEST_SKIP();
  Fixture f(static_cast<std::size_t>(d));
  const Bytes onion = f.build(static_cast<std::size_t>(origin));
  const auto result = f.verify(ByteView(onion.data(), onion.size()));
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.valid_layers, static_cast<std::size_t>(origin));
  EXPECT_EQ(result.origin, origin);
}

INSTANTIATE_TEST_SUITE_P(
    AllOrigins, OnionOrigin,
    ::testing::Combine(::testing::Values(2, 4, 6, 10),
                       ::testing::Values(1, 2, 3, 5, 6, 9, 10)));

class OnionTamper : public ::testing::TestWithParam<int> {};

// Mid-flight tampering: the adversary at F_z alters the inner onion it
// received (from F_{z+1}..origin), then wraps its own — necessarily
// valid-looking — layer, and the honest nodes F_{z-1}..F_1 wrap over the
// altered content. Verification must stop exactly after layer z: the
// adversary can only get its *own* adjacent link blamed.
TEST_P(OnionTamper, MidFlightTamperBlamesAdversaryBoundary) {
  const std::size_t d = 6;
  const std::size_t z = static_cast<std::size_t>(GetParam());
  Fixture f(d);

  // Inner onion as produced by nodes origin..z+1.
  Bytes inner = f.report_for(d);
  Bytes onion = onion_originate(*f.crypto, f.key_vec[d],
                                static_cast<std::uint8_t>(d),
                                ByteView(inner.data(), inner.size()));
  for (std::size_t i = d; i-- > z + 1;) {
    const Bytes ri = f.report_for(i);
    onion = onion_wrap(*f.crypto, f.key_vec[i], static_cast<std::uint8_t>(i),
                       ByteView(ri.data(), ri.size()),
                       ByteView(onion.data(), onion.size()));
  }
  // F_z tampers with the received inner bytes...
  onion.back() ^= 0x01;
  // ...then wraps honestly-looking layers z..1 over the altered content.
  for (std::size_t i = z + 1; i-- > 1;) {
    const Bytes ri = f.report_for(i);
    onion = onion_wrap(*f.crypto, f.key_vec[i], static_cast<std::uint8_t>(i),
                       ByteView(ri.data(), ri.size()),
                       ByteView(onion.data(), onion.size()));
  }

  const auto result = f.verify(ByteView(onion.data(), onion.size()));
  EXPECT_EQ(result.valid_layers, z);  // blame lands on l_z
  EXPECT_FALSE(result.complete);
}

INSTANTIATE_TEST_SUITE_P(EveryPosition, OnionTamper,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Onion, OutsideTamperingInvalidatesEverything) {
  // Flipping a byte anywhere in a *finished* onion breaks every MAC above
  // it (each MAC covers the full inner serialization), so an off-path
  // observer or the l_0 link cannot alter deep layers while keeping an
  // honest-looking prefix it did not author.
  Fixture f(6);
  const Bytes onion = f.build(6);
  Bytes tampered = onion;
  tampered.back() ^= 0x01;  // innermost byte
  const auto result = f.verify(ByteView(tampered.data(), tampered.size()));
  EXPECT_EQ(result.valid_layers, 0u);
}

TEST(Onion, TruncationStopsAtTruncationPoint) {
  Fixture f(6);
  const Bytes onion = f.build(6);
  // Removing bytes from the end invalidates every layer (MACs cover the
  // inner serialization).
  Bytes truncated(onion.begin(), onion.end() - 3);
  const auto result = f.verify(ByteView(truncated.data(), truncated.size()));
  EXPECT_EQ(result.valid_layers, 0u);
  EXPECT_FALSE(result.complete);
}

TEST(Onion, StrippedOuterLayerFailsIndexCheck) {
  // An adversary removing F_1's layer exposes F_2's layer first; the
  // verifier expects index 1 and rejects immediately.
  Fixture f(6);
  const Bytes onion = f.build(6);
  WireReader r(ByteView(onion.data(), onion.size()));
  std::uint8_t idx;
  Bytes rep, mac;
  ASSERT_TRUE(r.u8(idx));
  ASSERT_TRUE(r.var_bytes(rep));
  ASSERT_TRUE(r.raw(crypto::kMacSize, mac));
  const std::size_t first_len = 1 + 2 + rep.size() + crypto::kMacSize;
  const Bytes stripped(onion.begin() + first_len, onion.end());
  const auto result = f.verify(ByteView(stripped.data(), stripped.size()));
  EXPECT_EQ(result.valid_layers, 0u);
}

TEST(Onion, WrongKeyFailsVerification) {
  Fixture f(4);
  const Bytes onion = f.build(4);
  Fixture other(4);
  // Same structure, different master key.
  const KeyStore other_keys(crypto::test_master_key(999), 4);
  std::vector<Key> wrong(5);
  for (std::size_t i = 1; i <= 4; ++i) wrong[i] = other_keys.node_key(i);
  const auto result = onion_verify(
      *f.crypto, wrong, 4, ByteView(onion.data(), onion.size()),
      [](std::uint8_t, ByteView) { return true; });
  EXPECT_EQ(result.valid_layers, 0u);
}

TEST(Onion, ReportContentCheckIsEnforced) {
  Fixture f(3);
  const Bytes onion = f.build(3);
  const auto result = onion_verify(
      *f.crypto, f.key_vec, 3, ByteView(onion.data(), onion.size()),
      [](std::uint8_t i, ByteView) { return i < 2; });  // reject layer 2+
  EXPECT_EQ(result.valid_layers, 1u);
}

TEST(Onion, EmptyAndGarbageInputs) {
  Fixture f(6);
  EXPECT_EQ(f.verify(ByteView{}).valid_layers, 0u);
  const Bytes junk = {0x01, 0x00};
  EXPECT_EQ(f.verify(ByteView(junk.data(), junk.size())).valid_layers, 0u);
}

TEST(Onion, LayerOverheadFormulaMatchesWire) {
  Fixture f(5);
  const Bytes r1 = f.report_for(5);
  const Bytes onion = f.build(5);
  std::size_t expected = 0;
  for (std::size_t i = 1; i <= 5; ++i) {
    expected += onion_layer_overhead(f.report_for(i).size());
  }
  EXPECT_EQ(onion.size(), expected);
}

TEST(PacketFormats, RoundTripAllTypes) {
  const auto crypto = crypto::make_real_crypto();

  DataPacket data{42, 123456789, 1000};
  const Bytes dw = data.encode();
  const auto data2 = DataPacket::decode(ByteView(dw.data(), dw.size()));
  ASSERT_TRUE(data2);
  EXPECT_EQ(data2->seq, 42u);
  EXPECT_EQ(data2->timestamp_ns, 123456789u);
  EXPECT_EQ(data2->payload_size, 1000);
  EXPECT_EQ(data.wire_size(), dw.size() + 1000);
  EXPECT_EQ(data.id(*crypto), data2->id(*crypto));

  DestAck ack;
  ack.data_id = data.id(*crypto);
  ack.tag = crypto->mac(crypto::test_master_key(1), ByteView(dw.data(), 4));
  const Bytes aw = ack.encode();
  const auto ack2 = DestAck::decode(ByteView(aw.data(), aw.size()));
  ASSERT_TRUE(ack2);
  EXPECT_EQ(ack2->data_id, ack.data_id);
  EXPECT_EQ(ack2->tag, ack.tag);

  Probe probe;
  probe.data_id = ack.data_id;
  probe.challenge = 0xfeedfacecafebeefULL;
  const Bytes pw = probe.encode();
  const auto probe2 = Probe::decode(ByteView(pw.data(), pw.size()));
  ASSERT_TRUE(probe2);
  EXPECT_EQ(probe2->challenge, probe.challenge);

  ReportAck rep;
  rep.data_id = ack.data_id;
  rep.report = bytes_of("some-onion");
  const Bytes rw = rep.encode();
  const auto rep2 = ReportAck::decode(ByteView(rw.data(), rw.size()));
  ASSERT_TRUE(rep2);
  EXPECT_EQ(rep2->report, rep.report);

  FlRequest req{77};
  const Bytes qw = req.encode();
  const auto req2 = FlRequest::decode(ByteView(qw.data(), qw.size()));
  ASSERT_TRUE(req2);
  EXPECT_EQ(req2->interval, 77u);

  FlReport flr;
  flr.interval = 78;
  flr.report = bytes_of("counters");
  const Bytes fw = flr.encode();
  const auto flr2 = FlReport::decode(ByteView(fw.data(), fw.size()));
  ASSERT_TRUE(flr2);
  EXPECT_EQ(flr2->interval, 78u);
  EXPECT_EQ(flr2->report, flr.report);
}

TEST(PacketFormats, PeekTypeAndCrossDecodeRejection) {
  DataPacket data{1, 2, 3};
  const Bytes dw = data.encode();
  EXPECT_EQ(peek_type(ByteView(dw.data(), dw.size())), PacketType::kData);
  EXPECT_FALSE(Probe::decode(ByteView(dw.data(), dw.size())));
  EXPECT_FALSE(DestAck::decode(ByteView(dw.data(), dw.size())));
  EXPECT_FALSE(peek_type(ByteView{}));
  const Bytes junk = {0x77};
  EXPECT_FALSE(peek_type(ByteView(junk.data(), junk.size())));
}

TEST(PacketFormats, IdentifierBindsAllHeaderFields) {
  const auto crypto = crypto::make_real_crypto();
  DataPacket a{1, 100, 50};
  DataPacket b = a;
  b.seq = 2;
  DataPacket c = a;
  c.timestamp_ns = 101;
  DataPacket d = a;
  d.payload_size = 51;
  EXPECT_NE(a.id(*crypto), b.id(*crypto));
  EXPECT_NE(a.id(*crypto), c.id(*crypto));
  EXPECT_NE(a.id(*crypto), d.id(*crypto));
}

// --- Wire path: the stack-encoded header, the arithmetic wire size and
// the reserved-once encoders must reproduce the plain field-by-field
// encoding exactly. `reference_*` are that encoding, one field at a time
// into an unreserved WireWriter.

Bytes reference_data(const DataPacket& p) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(PacketType::kData));
  w.u64(p.seq);
  w.u64(p.timestamp_ns);
  w.u16(p.payload_size);
  return std::move(w).take();
}

Bytes reference_dest_ack(const DestAck& a) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(PacketType::kDestAck));
  w.raw(ByteView(a.data_id.data(), a.data_id.size()));
  w.raw(ByteView(a.tag.data(), a.tag.size()));
  return std::move(w).take();
}

Bytes reference_probe(const Probe& p) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(PacketType::kProbe));
  w.raw(ByteView(p.data_id.data(), p.data_id.size()));
  w.u64(p.challenge);
  w.var_bytes(ByteView(p.auth.data(), p.auth.size()));
  return std::move(w).take();
}

Bytes reference_report_ack(const ReportAck& a) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(PacketType::kReportAck));
  w.raw(ByteView(a.data_id.data(), a.data_id.size()));
  w.var_bytes(ByteView(a.report.data(), a.report.size()));
  return std::move(w).take();
}

Bytes reference_fl_request(const FlRequest& q) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(PacketType::kFlRequest));
  w.u64(q.interval);
  return std::move(w).take();
}

Bytes reference_fl_report(const FlReport& r) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(PacketType::kFlReport));
  w.u64(r.interval);
  w.var_bytes(ByteView(r.report.data(), r.report.size()));
  return std::move(w).take();
}

ByteView view_of(const Bytes& b) { return ByteView(b.data(), b.size()); }

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  Bytes out(rng.next_below(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

template <typename Array>
void fill_random(Rng& rng, Array& a) {
  for (auto& b : a) b = static_cast<std::uint8_t>(rng.next_u64());
}

class WirePath : public ::testing::TestWithParam<crypto::CryptoKind> {};

TEST_P(WirePath, DataHeaderIdAndSizeMatchTheEncoding) {
  const auto crypto = crypto::make_crypto(GetParam());
  Rng rng(0x5eed);
  for (int i = 0; i < 2000; ++i) {
    DataPacket p;
    p.seq = rng.next_u64();
    p.timestamp_ns = i % 5 == 0 ? 0 : rng.next_u64();
    p.payload_size = static_cast<std::uint16_t>(
        i % 7 == 0 ? 0xffff : rng.next_below(0x10000));
    const Bytes wire = p.encode();
    ASSERT_EQ(wire, reference_data(p));
    ASSERT_EQ(wire.size(), DataPacket::kHeaderSize);
    EXPECT_EQ(p.id(*crypto), packet_id_of(*crypto, view_of(wire)));
    EXPECT_EQ(p.wire_size(), wire.size() + p.payload_size);
    const auto back = DataPacket::decode(view_of(wire));
    ASSERT_TRUE(back);
    EXPECT_EQ(back->encode(), wire);
  }
}

TEST_P(WirePath, EveryPacketTypeRoundTripsToTheSameBytes) {
  const auto crypto = crypto::make_crypto(GetParam());
  Rng rng(0xc0dec);
  for (int i = 0; i < 1000; ++i) {
    DataPacket data{rng.next_u64(), rng.next_u64(),
                    static_cast<std::uint16_t>(rng.next_below(1500))};
    const PacketId id = data.id(*crypto);

    DestAck ack{id, {}};
    fill_random(rng, ack.tag);
    const Bytes ack_wire = ack.encode();
    ASSERT_EQ(ack_wire, reference_dest_ack(ack));
    EXPECT_EQ(ack_wire.size(), ack.wire_size());
    const auto ack2 = DestAck::decode(view_of(ack_wire));
    ASSERT_TRUE(ack2);
    EXPECT_EQ(ack2->encode(), ack_wire);

    Probe probe{id, rng.next_u64(), random_bytes(rng, 64)};
    const Bytes probe_wire = probe.encode();
    ASSERT_EQ(probe_wire, reference_probe(probe));
    EXPECT_EQ(probe_wire.size(), probe.wire_size());
    const auto probe2 = Probe::decode(view_of(probe_wire));
    ASSERT_TRUE(probe2);
    EXPECT_EQ(probe2->encode(), probe_wire);

    ReportAck rack{id, random_bytes(rng, 300)};
    const Bytes rack_wire = rack.encode();
    ASSERT_EQ(rack_wire, reference_report_ack(rack));
    EXPECT_EQ(rack_wire.size(), rack.wire_size());
    const auto rack2 = ReportAck::decode(view_of(rack_wire));
    ASSERT_TRUE(rack2);
    EXPECT_EQ(rack2->encode(), rack_wire);

    FlRequest req{rng.next_u64()};
    const Bytes req_wire = req.encode();
    ASSERT_EQ(req_wire, reference_fl_request(req));
    EXPECT_EQ(req_wire.size(), req.wire_size());
    const auto req2 = FlRequest::decode(view_of(req_wire));
    ASSERT_TRUE(req2);
    EXPECT_EQ(req2->encode(), req_wire);

    FlReport rep{rng.next_u64(), random_bytes(rng, 300)};
    const Bytes rep_wire = rep.encode();
    ASSERT_EQ(rep_wire, reference_fl_report(rep));
    EXPECT_EQ(rep_wire.size(), rep.wire_size());
    const auto rep2 = FlReport::decode(view_of(rep_wire));
    ASSERT_TRUE(rep2);
    EXPECT_EQ(rep2->encode(), rep_wire);

    // A truncated id or tag is rejected, never read past the buffer.
    EXPECT_FALSE(DestAck::decode(view_of(ack_wire).first(
        1 + rng.next_below(ack_wire.size() - 1))));
  }
}

INSTANTIATE_TEST_SUITE_P(Crypto, WirePath,
                         ::testing::Values(crypto::CryptoKind::kFast,
                                           crypto::CryptoKind::kReal),
                         [](const auto& p) {
                           return p.param == crypto::CryptoKind::kFast
                                      ? std::string("FastCrypto")
                                      : std::string("RealCrypto");
                         });

}  // namespace
}  // namespace paai::net
