// Incremental scoring engine: the batch protocols' identify phase,
// re-expressed as a consumer of the forensic event stream (obs/events.h).
//
// The batch sources score through a protocols::ScoreLedger that logs every
// mutation as a typed event at the moment it happens. ScoreEngine hands
// each scoring event to ScoreLedger::apply(), which calls the very
// mutation method the source called, so its estimates, conviction sets,
// and e2e rates are bit-identical to the originating run's — `paai
// replay` asserts this, and tests/stream_test.cc proves it per protocol.
// The event → mutation mapping is documented once, in protocols/ledger.h.
//
// What the engine adds is the stream's own bookkeeping: the in-band
// run-config and run-end, the producer's recorded conviction verdicts,
// events seen/applied, and the conviction-transition baseline behind
// take_new_convictions().
//
// Configuration is in-band: the runner opens every log with a kRunConfig
// event (protocol, path length, blame-mode code, threshold), so a consumer
// needs no out-of-band knowledge of what produced the stream. An engine
// can also be configured explicitly (restored snapshots, headless pipes);
// a later kRunConfig that contradicts the active configuration is a hard
// error rather than a silent re-score.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "obs/events.h"
#include "obs/metrics.h"
#include "protocols/context.h"
#include "protocols/ledger.h"

namespace paai::stream {

struct EngineConfig {
  protocols::ProtocolKind protocol = protocols::ProtocolKind::kPaai1;
  std::size_t num_links = 6;
  double threshold = 0.02;
  protocols::BlameSpec blame;
};

/// A batch conviction record observed in the stream (kConviction events
/// are the producer's own verdicts; replay --verify compares the engine's
/// final conviction set against the final batch records).
struct ConvictionRecord {
  std::size_t link = 0;
  std::uint64_t packets = 0;
  std::uint64_t observations = 0;
  double theta = 0.0;
  /// 1-based stream line the record arrived on (0 = unknown: in-memory
  /// replays and legacy snapshots). Diagnostic only — never compared.
  std::uint64_t line = 0;
};

class ScoreEngine {
 public:
  /// Unconfigured: absorbs nothing until a kRunConfig arrives (or
  /// configure() / state restore runs).
  ScoreEngine() = default;

  explicit ScoreEngine(const EngineConfig& config) { configure(config); }

  /// (Re)configures the engine and resets all scoring state.
  void configure(const EngineConfig& config);

  bool configured() const { return ledger_.has_value(); }
  const EngineConfig& config() const { return config_; }

  /// Applies one event. Score-irrelevant kinds are counted and skipped.
  /// Throws std::runtime_error on an impossible payload (blame on an
  /// out-of-range link, kRunConfig contradicting the active
  /// configuration, score events before any configuration); a rejected
  /// event changes nothing, not even events_seen().
  void apply(const obs::Event& event);

  /// Stream-position bookkeeping for replay diagnostics: the feeder
  /// (serve_stream) sets the 1-based line the next event came from;
  /// kConviction records are stamped with it.
  void set_stream_line(std::uint64_t line) { stream_line_ = line; }

  /// Every event apply() accepted.
  std::uint64_t events_seen() const { return events_seen_; }
  /// The subset that mutated scoring state or derived counters.
  std::uint64_t events_applied() const { return events_applied_; }

  bool run_ended() const { return run_ended_; }

  /// The scoring state (engine must be configured).
  const protocols::ScoreLedger& ledger() const { return *ledger_; }

  // --- the ledger's read side (zero / empty while unconfigured) --------
  std::uint64_t packets_sent() const {
    return ledger_ ? ledger_->packets_sent() : 0;
  }
  std::uint64_t observations() const {
    return ledger_ ? ledger_->observations() : 0;
  }
  std::vector<double> thetas() const {
    return ledger_ ? ledger_->thetas() : std::vector<double>{};
  }
  std::vector<std::size_t> convicted() const {
    return ledger_ ? ledger_->convicted(config_.threshold)
                   : std::vector<std::size_t>{};
  }
  double observed_e2e_rate() const {
    return ledger_ ? ledger_->observed_e2e_rate() : 0.0;
  }

  /// Links that entered the convicted set since the previous call (or
  /// since configure/restore, which baseline the set). A link that leaves
  /// and re-enters is reported again — conviction is a monotone event for
  /// honest runs, but adversarial estimates can hover at the threshold.
  std::vector<std::size_t> take_new_convictions();

  /// Batch kConviction records seen in the stream, in order.
  const std::vector<ConvictionRecord>& recorded_convictions() const {
    return recorded_;
  }

  // --- snapshot plumbing (stream/state.h) ------------------------------
  /// The configured ledger, for restoring its tables (state.cc only).
  protocols::ScoreLedger* mutable_ledger() {
    return ledger_ ? &*ledger_ : nullptr;
  }

  /// Overwrites the stream bookkeeping from a snapshot (state.cc only; the
  /// engine must already be configured with the matching shape).
  void restore_counters(std::uint64_t events_seen, std::uint64_t events_applied,
                        bool run_ended, std::vector<ConvictionRecord> recorded);
  /// Re-baselines conviction-transition tracking at the current state
  /// (called after a restore so already-convicted links are not
  /// re-announced).
  void rebaseline_convictions();

 private:
  EngineConfig config_{};
  std::optional<protocols::ScoreLedger> ledger_;

  std::uint64_t events_seen_ = 0;
  std::uint64_t events_applied_ = 0;
  bool run_ended_ = false;
  std::uint64_t stream_line_ = 0;

  std::vector<ConvictionRecord> recorded_;
  std::vector<bool> convicted_before_;  // transition baseline

  obs::Counter obs_ingested_;
  obs::Counter obs_applied_;
  obs::Counter obs_convictions_;
};

}  // namespace paai::stream
