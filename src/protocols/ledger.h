// ScoreLedger: the one scoring path (§5 "score"/"identify" phases, §6.1
// and §6.2 phases 4-5) that the batch sources and the stream engine both
// drive.
//
// A ledger owns one protocol's score table (ScoreTable, Paai2ScoreTable or
// FlScoreTable, built with that protocol's calibration by make_ledger())
// and the packets-sent / delivered counters. It exposes the mutations the
// forensic events name — send, sample-select, ack-timeout, clean, blame,
// fl-count. Each call applies its mutation and, when an EventLog is
// attached, appends the event that describes it. apply() decodes such an
// event and calls the same method, so the logged evidence and the applied
// mutation are the same code: batch ≡ stream holds by construction, and a
// third party re-checking a log (`paai replay --verify`) re-runs exactly
// the source's scoring.
//
// Event → mutation mapping (per protocol family):
//
//   full-ack / comb1 / sigack   kDataSend → packets_sent
//     (ScoreTable, 1 + 2·probes) kAckTimeout → note_probe
//                               kScoreClean → add_clean, delivered
//                               kScoreBlame(link) → blame(link)
//   paai1 (ScoreTable, 2.6)     same, except kAckTimeout does not
//                               note_probe (the fixed 2.6 exposure has no
//                               probe term) and the timeout is immediately
//                               followed by its kScoreBlame(0)
//   paai2 (Paai2ScoreTable)     kDataSend → packets_sent, add_data_packet
//                               (every packet is monitored in plain mode)
//                               kScoreClean(b=e) → add_probe(e, false)
//                               kScoreBlame(b=e) → add_probe(e, true)
//   comb2 (Paai2ScoreTable)     like paai2, but kSampleSelect →
//                               add_data_packet (only sampled packets are
//                               monitored)
//   statfl (FlScoreTable)       kFlCount(link=j, b=count) → add_count
//                               kScoreClean → interval_reported
//                               kAckTimeout → interval_lost
//
// Every other kind (and kSampleSelect / kAckTimeout where the table above
// lists no mutation) is logged for forensics and scores nothing. All of
// these are source (node-0) events, so the merged JSONL export preserves
// their append order.
//
// A mutation validates its arguments before touching any counter: a
// rejected call throws std::runtime_error and leaves the ledger as it
// was. With no log attached a mutation appends nothing and allocates
// nothing; logging costs one branch.
#pragma once

#include <cstdint>
#include <utility>
#include <variant>
#include <vector>

#include "obs/events.h"
#include "protocols/context.h"
#include "protocols/score.h"

namespace paai::sim {
class Simulator;
}  // namespace paai::sim

namespace paai::protocols {

class ScoreLedger {
 public:
  ProtocolKind kind() const { return kind_; }
  std::size_t num_links() const { return d_; }

  /// Attaches the forensic log the mutations append to (nullptr = off).
  /// Events are stamped with `clock`'s now() (0 when null) and attributed
  /// to path position `node`.
  void log_to(obs::EventLog* log, const sim::Simulator* clock,
              std::size_t node = 0) {
    log_ = log;
    clock_ = clock;
    node_ = node;
  }

  // --- mutations (one per scoring event kind) --------------------------

  /// kDataSend: a data packet left the source (a = packet id64, seq).
  void send(std::uint64_t a, std::uint64_t seq);

  /// kSampleSelect: a packet was sampled for monitoring. Scores only for
  /// comb2; returns whether it changed scoring state.
  bool sample_select(std::uint64_t a, std::uint64_t seq);

  /// kAckTimeout: a response timer expired (a = packet id64 or FL
  /// interval, b = FL attempts). Returns whether it changed scoring state.
  bool ack_timeout(std::uint64_t a, std::uint64_t b = 0);

  /// kScoreClean: a monitored unit resolved with no localized loss.
  /// `selected` is PAAI-2's selected node e in [1, d] (prefix family
  /// only).
  void clean(std::uint64_t a, std::uint64_t selected = 0);

  /// kScoreBlame: onion family — `link` in [0, d) is blamed; prefix family
  /// — the probe selecting node `selected` in [1, d] failed (`link` is
  /// logged as given, -1 by convention). Impossible for statfl.
  void blame(std::int32_t link, std::uint64_t a, std::uint64_t selected = 0);

  /// kFlCount: statfl folds `count` sampled packets at node `node` in
  /// [0, d] for reporting interval `interval`.
  void fl_count(std::int32_t node, std::uint64_t interval,
                std::uint64_t count);

  /// Whether `kind` is one of the six scoring event kinds above.
  static bool scores(obs::EventKind kind);

  /// Decodes a scoring event and calls its mutation. Returns whether the
  /// event changed scoring state; throws std::runtime_error (leaving the
  /// ledger unchanged) on an impossible payload.
  bool apply(const obs::Event& event);

  // --- read side --------------------------------------------------------

  /// Data packets the source has emitted.
  std::uint64_t packets_sent() const { return packets_sent_; }
  /// Onion-family clean resolutions (the e2e numerator); 0 otherwise.
  std::uint64_t delivered() const { return delivered_; }

  /// Monitored units with a resolved outcome (packets for the onion
  /// family, probes for the prefix family, reported intervals for statfl).
  std::uint64_t observations() const;

  /// Current per-traversal drop-rate estimate for each link l_0..l_{d-1}.
  std::vector<double> thetas() const;

  /// Identify phase: links the configured blame rule convicts at
  /// `threshold`.
  std::vector<std::size_t> convicted(double threshold) const;

  /// End-to-end data drop rate psi as the source observes it.
  double observed_e2e_rate() const;

  /// The table when it is a `T` (ScoreTable, Paai2ScoreTable or
  /// FlScoreTable), else nullptr.
  template <typename T>
  const T* table() const {
    return std::get_if<T>(&table_);
  }
  template <typename T>
  T* table() {
    return std::get_if<T>(&table_);
  }

  // --- snapshot codec (stream/state.cc) ---------------------------------
  // Two templates, not one: the snapshot puts the stream engine's
  // run_ended and recorded_convictions between the counters and the
  // "table" object.

  /// Names packets_sent and delivered.
  template <class Io>
  void counters_io(Io& io) {
    io.field("packets_sent", packets_sent_);
    io.field("delivered", delivered_);
  }

  /// Names the table's state as the "table" object.
  template <class Io>
  void table_io(Io& io) {
    io.object("table", [&] {
      std::visit([&io](auto& t) { t.state_io(io); }, table_);
    });
  }

 private:
  using Table = std::variant<ScoreTable, Paai2ScoreTable, FlScoreTable>;

  friend ScoreLedger make_ledger(ProtocolKind kind, std::size_t d,
                                 const BlameSpec& blame);
  ScoreLedger(ProtocolKind kind, Table table, std::size_t d)
      : kind_(kind), d_(d), table_(std::move(table)) {}

  void log(obs::EventKind kind, std::int32_t link, std::uint64_t a,
           std::uint64_t b, double value = 0.0) const;

  ProtocolKind kind_;
  std::size_t d_;
  Table table_;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t delivered_ = 0;
  obs::EventLog* log_ = nullptr;
  const sim::Simulator* clock_ = nullptr;
  std::size_t node_ = 0;
};

/// Builds `kind`'s ledger for a d-link path under `blame`. The only copy
/// of the calibration literals: exposure 1 + 2·(probes/n) for full-ack,
/// comb1 and sig-ack, a fixed 2.6 for PAAI-1. Throws std::invalid_argument
/// on d == 0 or an unknown kind.
ScoreLedger make_ledger(ProtocolKind kind, std::size_t d,
                        const BlameSpec& blame);

}  // namespace paai::protocols
