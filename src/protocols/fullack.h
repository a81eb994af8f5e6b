// The full-ack strawman protocol (§4).
//
// Every data packet is acknowledged by the destination with
// a_d = [H(m)]_{K_d}. If the source misses that ack within the path RTT
// bound, it sends an onion-report request (probe); every node still holding
// state for H(m) contributes a MAC layer, and the first missing/invalid
// layer pinpoints the faulty link for *that very packet* — the finest
// detection granularity of all the protocols, at one control packet (plus
// an O(d) onion on loss) per data packet.
//
// Storage note: the paper's ideal-case bound (§7.4) assumes a relay can
// release its per-packet state once the destination ack passes. We found
// that optimization unsound: relays cannot authenticate a_d, so corrupted
// acks injected by an adversary would flush honest state and turn the next
// probe round into a false accusation of l_0 (see DESIGN.md §"findings").
// Our relays therefore hold state for the full probe horizon; the paper's
// worst-case bound still applies.
#pragma once

#include "net/onion.h"
#include "net/packet.h"
#include "protocols/context.h"
#include "protocols/ledger.h"
#include "protocols/pending.h"
#include "protocols/relay_base.h"
#include "sim/node.h"

namespace paai::protocols {

class FullAckSource final : public sim::Agent {
 public:
  explicit FullAckSource(const ProtocolContext& ctx);

  void start() override;
  void on_packet(const sim::PacketEnv& env) override;

  const ScoreLedger& ledger() const { return ledger_; }

 private:
  struct Pending {
    bool probed = false;
  };

  void send_next();
  void on_ack_timeout(const net::PacketId& id);
  void on_probe_timeout(const net::PacketId& id);
  void handle_dest_ack(const net::DestAck& ack);
  void handle_report(const net::ReportAck& ack);
  bool report_ok(std::uint8_t index, ByteView report,
                 const net::PacketId& id) const;

  const ProtocolContext& ctx_;
  ScoreLedger ledger_;
  PendingStore<Pending> pending_;
  sim::SimDuration send_period_;
};

class FullAckRelay final : public RelayBase {
 public:
  explicit FullAckRelay(const ProtocolContext& ctx) : RelayBase(ctx), pending_(nullptr) {}

  void start() override;
  void on_packet(const sim::PacketEnv& env) override;

 private:
  struct RState {
    bool probe_seen = false;
    bool responded = false;
  };

  void on_wait_timeout(const net::PacketId& id);
  Bytes local_report(const net::PacketId& id) const;

  PendingStore<RState> pending_;
};

class FullAckDestination final : public sim::Agent {
 public:
  explicit FullAckDestination(const ProtocolContext& ctx)
      : ctx_(ctx), pending_(nullptr) {}

  void start() override;
  void on_packet(const sim::PacketEnv& env) override;

 private:
  struct DState {};

  const ProtocolContext& ctx_;
  PendingStore<DState> pending_;
};

/// Freshness-checked decode helper shared by all destination/relay agents:
/// returns the packet and its identifier iff the wire bytes parse.
struct DecodedData {
  net::DataPacket packet;
  net::PacketId id;
};
std::optional<DecodedData> decode_data(const ProtocolContext& ctx,
                                       ByteView wire);

}  // namespace paai::protocols
