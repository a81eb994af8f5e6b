#include "stream/engine.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace paai::stream {

void ScoreEngine::configure(const EngineConfig& config) {
  if (config.num_links == 0) {
    throw std::runtime_error("stream: configuration needs at least one link");
  }
  if (config.protocol > protocols::ProtocolKind::kSigAck) {
    throw std::runtime_error("stream: configuration names an unknown protocol");
  }
  config_ = config;
  ledger_.emplace(
      protocols::make_ledger(config.protocol, config.num_links, config.blame));

  run_ended_ = false;
  recorded_.clear();
  convicted_before_.assign(config.num_links, false);

  auto& reg = obs::MetricsRegistry::global();
  obs_ingested_ = reg.counter("stream.events.ingested");
  obs_applied_ = reg.counter("stream.events.applied");
  obs_convictions_ = reg.counter("stream.convictions");
}

void ScoreEngine::apply(const obs::Event& event) {
  bool applied = true;
  switch (event.kind) {
    case obs::EventKind::kRunConfig: {
      EngineConfig incoming;
      incoming.protocol = static_cast<protocols::ProtocolKind>(event.a);
      incoming.num_links = static_cast<std::size_t>(event.b);
      incoming.threshold = event.value;
      incoming.blame = event.link > 0
                           ? protocols::BlameSpec::decode32(event.link)
                           : protocols::BlameSpec{};
      if (!ledger_) {
        configure(incoming);
      } else if (incoming.protocol != config_.protocol ||
                 incoming.num_links != config_.num_links ||
                 incoming.blame != config_.blame ||
                 incoming.threshold != config_.threshold) {
        throw std::runtime_error(
            "stream: run-config contradicts the active configuration "
            "(mixed logs or wrong --state-in?)");
      }
      break;
    }
    case obs::EventKind::kRunEnd:
      run_ended_ = true;
      break;
    case obs::EventKind::kConviction: {
      if (event.link < 0) {
        throw std::runtime_error("stream: conviction without a link");
      }
      ConvictionRecord rec;
      rec.link = static_cast<std::size_t>(event.link);
      rec.packets = event.a;
      rec.observations = event.b;
      rec.theta = event.value;
      rec.line = stream_line_;
      recorded_.push_back(rec);
      break;
    }
    default:
      if (!protocols::ScoreLedger::scores(event.kind)) {
        applied = false;  // wire activity and other forensic-only kinds
      } else if (!ledger_) {
        throw std::runtime_error(
            std::string("stream: ") + obs::event_kind_name(event.kind) +
            " (node " + std::to_string(event.node) + ", seq " +
            std::to_string(event.seq) +
            ") before any run-config (configure the engine or feed a log "
            "with a run-config prologue)");
      } else {
        applied = ledger_->apply(event);
      }
      break;
  }
  ++events_seen_;
  obs_ingested_.add();
  if (applied) {
    ++events_applied_;
    obs_applied_.add();
  }
}

std::vector<std::size_t> ScoreEngine::take_new_convictions() {
  std::vector<std::size_t> fresh;
  if (!ledger_) return fresh;
  const std::vector<std::size_t> now = convicted();
  for (const std::size_t link : now) {
    if (!convicted_before_[link]) fresh.push_back(link);
  }
  // The baseline becomes `now` in place.
  std::fill(convicted_before_.begin(), convicted_before_.end(), false);
  for (const std::size_t link : now) convicted_before_[link] = true;
  if (!fresh.empty()) obs_convictions_.add(fresh.size());
  return fresh;
}

void ScoreEngine::restore_counters(std::uint64_t events_seen,
                                   std::uint64_t events_applied,
                                   bool run_ended,
                                   std::vector<ConvictionRecord> recorded) {
  events_seen_ = events_seen;
  events_applied_ = events_applied;
  run_ended_ = run_ended;
  recorded_ = std::move(recorded);
}

void ScoreEngine::rebaseline_convictions() {
  convicted_before_.assign(config_.num_links, false);
  for (const std::size_t link : convicted()) convicted_before_[link] = true;
}

}  // namespace paai::stream
