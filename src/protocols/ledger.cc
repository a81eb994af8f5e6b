#include "protocols/ledger.h"

#include <stdexcept>
#include <string>

#include "sim/simulator.h"

namespace paai::protocols {

namespace {

[[noreturn]] void reject(const std::string& what) {
  throw std::runtime_error(what);
}

}  // namespace

ScoreLedger make_ledger(ProtocolKind kind, std::size_t d,
                        const BlameSpec& blame) {
  if (d == 0) {
    throw std::invalid_argument("make_ledger: need at least one link");
  }
  ScoreLedger::Table table = [&]() -> ScoreLedger::Table {
    switch (kind) {
      case ProtocolKind::kFullAck:
      case ProtocolKind::kCombination1:
      case ProtocolKind::kSigAck:
        // Blame exposure per monitored packet: a *data* drop on l_i is
        // always localized there (1 traversal); a lost destination ack
        // resolves to "clean" via the onion round (the data demonstrably
        // arrived); the probe and onion legs add exposure only in rounds
        // that actually probed — hence the dynamic probe_extra term.
        return ScoreTable(d, /*traversals=*/1.0, /*probe_extra=*/2.0);
      case ProtocolKind::kPaai1:
        // Every probed packet exposes a link to the data, probe, and onion
        // legs — nominally 3 traversals, but a drop suppresses the same
        // round's downstream legs (an onion that originated upstream of
        // l_i never crosses it), leaving an effective exposure of ~2.6.
        // Calibrated so that honest links estimate at their true natural
        // rate.
        return ScoreTable(d, /*traversals=*/2.6);
      case ProtocolKind::kPaai2:
      case ProtocolKind::kCombination2:
        return Paai2ScoreTable(d);
      case ProtocolKind::kStatisticalFl:
        return FlScoreTable(d);
    }
    throw std::invalid_argument("make_ledger: unknown protocol kind");
  }();
  std::visit([&blame](auto& t) { t.set_blame(blame); }, table);
  return ScoreLedger(kind, std::move(table), d);
}

void ScoreLedger::log(obs::EventKind kind, std::int32_t link, std::uint64_t a,
                      std::uint64_t b, double value) const {
  log_->append(node_, kind, clock_ != nullptr ? clock_->now() : 0, link, a, b,
               value);
}

void ScoreLedger::send(std::uint64_t a, std::uint64_t seq) {
  ++packets_sent_;
  // Plain PAAI-2 monitors every data packet; sampled monitoring (comb2)
  // announces its trials via sample_select instead.
  if (kind_ == ProtocolKind::kPaai2) {
    table<Paai2ScoreTable>()->add_data_packet();
  }
  if (log_ != nullptr) log(obs::EventKind::kDataSend, -1, a, seq);
}

bool ScoreLedger::sample_select(std::uint64_t a, std::uint64_t seq) {
  const bool scores = kind_ == ProtocolKind::kCombination2;
  if (scores) table<Paai2ScoreTable>()->add_data_packet();
  if (log_ != nullptr) log(obs::EventKind::kSampleSelect, -1, a, seq);
  return scores;
}

bool ScoreLedger::ack_timeout(std::uint64_t a, std::uint64_t b) {
  bool scores = false;
  ScoreTable* t = table<ScoreTable>();
  if (t != nullptr && kind_ != ProtocolKind::kPaai1) {
    // This round ran a probe (the dynamic probe_extra exposure).
    t->note_probe();
    scores = true;
  } else if (FlScoreTable* f = table<FlScoreTable>()) {
    f->interval_lost();
    scores = true;
  }
  if (log_ != nullptr) log(obs::EventKind::kAckTimeout, -1, a, b);
  return scores;
}

void ScoreLedger::clean(std::uint64_t a, std::uint64_t selected) {
  if (ScoreTable* t = table<ScoreTable>()) {
    t->add_clean();
    ++delivered_;
    if (log_ != nullptr) {
      log(obs::EventKind::kScoreClean, -1, a, t->observations());
    }
  } else if (Paai2ScoreTable* p = table<Paai2ScoreTable>()) {
    if (selected < 1 || selected > d_) {
      reject("score-clean selects node " + std::to_string(selected) +
             " outside [1, " + std::to_string(d_) + "]");
    }
    // A verified report proves the prefix [l_0, l_{e-1}] clean.
    p->add_probe(selected, /*prefix_failed=*/false);
    if (log_ != nullptr) log(obs::EventKind::kScoreClean, -1, a, selected);
  } else {
    FlScoreTable& f = std::get<FlScoreTable>(table_);
    f.interval_reported();
    if (log_ != nullptr) {
      log(obs::EventKind::kScoreClean, -1, a, f.intervals_reported());
    }
  }
}

void ScoreLedger::blame(std::int32_t link, std::uint64_t a,
                        std::uint64_t selected) {
  if (ScoreTable* t = table<ScoreTable>()) {
    if (link < 0 || static_cast<std::size_t>(link) >= d_) {
      reject("score-blame names link " + std::to_string(link) +
             " outside [0, " + std::to_string(d_) + ")");
    }
    const auto l = static_cast<std::size_t>(link);
    t->blame(l);
    if (log_ != nullptr) {
      log(obs::EventKind::kScoreBlame, link, a, t->observations(),
          t->theta(l));
    }
  } else if (Paai2ScoreTable* p = table<Paai2ScoreTable>()) {
    if (selected < 1 || selected > d_) {
      reject("score-blame selects node " + std::to_string(selected) +
             " outside [1, " + std::to_string(d_) + "]");
    }
    // Prefix evidence: the failure lies somewhere in [l_0, l_{e-1}].
    p->add_probe(selected, /*prefix_failed=*/true);
    if (log_ != nullptr) log(obs::EventKind::kScoreBlame, link, a, selected);
  } else {
    reject("score-blame is impossible for statfl (counts, not blames, "
           "drive its estimator)");
  }
}

void ScoreLedger::fl_count(std::int32_t node, std::uint64_t interval,
                           std::uint64_t count) {
  FlScoreTable* f = table<FlScoreTable>();
  if (f == nullptr) reject("fl-count in a non-statfl stream");
  if (node < 0 || static_cast<std::size_t>(node) > d_) {
    reject("fl-count names node " + std::to_string(node) + " outside [0, " +
           std::to_string(d_) + "]");
  }
  f->add_count(static_cast<std::size_t>(node), count);
  if (log_ != nullptr) log(obs::EventKind::kFlCount, node, interval, count);
}

bool ScoreLedger::scores(obs::EventKind kind) {
  switch (kind) {
    case obs::EventKind::kDataSend:
    case obs::EventKind::kSampleSelect:
    case obs::EventKind::kAckTimeout:
    case obs::EventKind::kScoreClean:
    case obs::EventKind::kScoreBlame:
    case obs::EventKind::kFlCount:
      return true;
    default:
      return false;
  }
}

bool ScoreLedger::apply(const obs::Event& e) {
  switch (e.kind) {
    case obs::EventKind::kDataSend:
      send(e.a, e.b);
      return true;
    case obs::EventKind::kSampleSelect:
      return sample_select(e.a, e.b);
    case obs::EventKind::kAckTimeout:
      return ack_timeout(e.a, e.b);
    case obs::EventKind::kScoreClean:
      clean(e.a, e.b);
      return true;
    case obs::EventKind::kScoreBlame:
      blame(e.link, e.a, e.b);
      return true;
    case obs::EventKind::kFlCount:
      fl_count(e.link, e.a, e.b);
      return true;
    default:
      // Wire activity, probe/ack bookkeeping, onion decodes, lifecycle:
      // forensically useful, score-irrelevant.
      return false;
  }
}

std::uint64_t ScoreLedger::observations() const {
  if (const ScoreTable* t = table<ScoreTable>()) return t->observations();
  if (const Paai2ScoreTable* p = table<Paai2ScoreTable>()) return p->probes();
  return std::get<FlScoreTable>(table_).intervals_reported();
}

std::vector<double> ScoreLedger::thetas() const {
  return std::visit([](const auto& t) { return t.thetas(); }, table_);
}

std::vector<std::size_t> ScoreLedger::convicted(double threshold) const {
  return std::visit(
      [threshold](const auto& t) { return t.convicted(threshold); }, table_);
}

double ScoreLedger::observed_e2e_rate() const {
  if (const auto* p = table<Paai2ScoreTable>()) return p->observed_e2e_rate();
  if (const auto* f = table<FlScoreTable>()) return f->observed_e2e_rate();
  // Full-ack and sig-ack resolve every packet, so they rate against
  // packets sent; PAAI-1 and comb1 resolve only monitored packets and
  // rate against those.
  const bool per_sent =
      kind_ == ProtocolKind::kFullAck || kind_ == ProtocolKind::kSigAck;
  const std::uint64_t denom =
      per_sent ? packets_sent_ : table<ScoreTable>()->observations();
  if (denom == 0) return 0.0;
  return 1.0 - static_cast<double>(delivered_) / static_cast<double>(denom);
}

}  // namespace paai::protocols
