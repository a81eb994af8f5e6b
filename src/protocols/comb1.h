// Combination 1 (§10): every node acknowledges a selected fraction of
// *lost* data packets.
//
// PAAI-1's probe function is re-keyed with K_d (the key shared between S
// and D), so the destination can independently decide that a packet is
// sampled and ack it right away. The source then solicits the O(d) onion
// report only for a sampled packet whose destination ack went missing —
// cutting PAAI-1's communication overhead from O(pd) to O(p(1 + psi d))
// while keeping the same detection rate. The cost is storage: relays
// cannot evaluate the K_d-keyed sampler, so they must hold state for
// *every* packet across the destination-ack round trip (Table 1's
// r_0(0.5 + 2p) nu bound).
//
// Relays behave exactly like full-ack relays (store all ids, release when
// the destination ack passes, contribute onion layers on probes), so that
// class is reused directly.
#pragma once

#include "crypto/sampler.h"
#include "net/onion.h"
#include "net/packet.h"
#include "protocols/context.h"
#include "protocols/fullack.h"
#include "protocols/paai1.h"
#include "protocols/ledger.h"
#include "protocols/pending.h"
#include "sim/node.h"

namespace paai::protocols {

class Comb1Source final : public sim::Agent {
 public:
  explicit Comb1Source(const ProtocolContext& ctx);

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

  const ProtocolContext& ctx_;
  crypto::SecureSampler sampler_;  // keyed with K_d
  ScoreLedger ledger_;
  PendingStore<Pending> pending_;
  sim::SimDuration send_period_;
};

using Comb1Relay = FullAckRelay;

class Comb1Destination final : public sim::Agent {
 public:
  explicit Comb1Destination(const ProtocolContext& ctx);

  void start() override;
  void on_packet(const sim::PacketEnv& env) override;

 private:
  struct DState {};

  const ProtocolContext& ctx_;
  crypto::SecureSampler sampler_;
  PendingStore<DState> pending_;
};

}  // namespace paai::protocols
