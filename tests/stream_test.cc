// Tests for src/stream — the online scoring engine.
//
// The correctness anchor is batch/stream equivalence: for every protocol,
// feeding a batch run's recorded event stream through ScoreEngine must
// reproduce the run's final thetas, conviction set, observation counts,
// and e2e rate *bit-identically* (exact double equality, no tolerance),
// including across a mid-stream snapshot/restore cycle — both from full
// simulated runs and, with no simulator, from random mutation sequences
// driven straight through a protocols::ScoreLedger. Around that anchor:
// rejected events leave the state untouched, paai.state.v1 round-trips,
// EventReader strictness (fuzz-style malformed input with line-numbered
// errors), persistence-mode conviction, and the serve loop's
// drain/snapshot behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "adversary/spec.h"
#include "faults/plan.h"
#include "obs/events.h"
#include "obs/json.h"
#include "protocols/ledger.h"
#include "protocols/score.h"
#include "runner/experiment.h"
#include "runner/producer.h"
#include "stream/engine.h"
#include "stream/service.h"
#include "stream/state.h"
#include "util/rng.h"

namespace paai::stream {
namespace {

constexpr protocols::ProtocolKind kAllProtocols[] = {
    protocols::ProtocolKind::kFullAck,      protocols::ProtocolKind::kPaai1,
    protocols::ProtocolKind::kPaai2,        protocols::ProtocolKind::kCombination1,
    protocols::ProtocolKind::kCombination2, protocols::ProtocolKind::kStatisticalFl,
    protocols::ProtocolKind::kSigAck,
};

struct BatchRun {
  runner::ExperimentResult result;
  std::vector<obs::Event> events;
  std::uint64_t dropped = 0;
};

BatchRun run_with_log(runner::ExperimentConfig cfg) {
  obs::EventLog log(
      static_cast<std::size_t>(cfg.params.total_packets) * 16 + 4096);
  cfg.path.events = &log;
  BatchRun out;
  out.result = runner::run_experiment(cfg);
  out.events = log.merged();
  out.dropped = log.dropped();
  return out;
}

/// Bit-exact comparison between a finished engine and the batch result it
/// replays. EXPECT_EQ on doubles is exact equality — that is the point.
void expect_equivalent(const runner::ExperimentResult& batch,
                       const ScoreEngine& engine, const char* label) {
  SCOPED_TRACE(label);
  EXPECT_TRUE(engine.run_ended());
  EXPECT_EQ(engine.packets_sent(), batch.packets_sent);
  EXPECT_EQ(engine.observations(), batch.observations);
  EXPECT_EQ(engine.observed_e2e_rate(), batch.observed_e2e_rate);
  const std::vector<double> thetas = engine.thetas();
  ASSERT_EQ(thetas.size(), batch.final_thetas.size());
  for (std::size_t i = 0; i < thetas.size(); ++i) {
    EXPECT_EQ(thetas[i], batch.final_thetas[i]) << "theta of l_" << i;
  }
  EXPECT_EQ(engine.convicted(), batch.final_convicted);
}

obs::Event make_event(obs::EventKind kind, std::int32_t link = -1,
                      std::uint64_t a = 0, std::uint64_t b = 0,
                      double v = 0.0) {
  obs::Event e;
  e.kind = kind;
  e.link = link;
  e.a = a;
  e.b = b;
  e.value = v;
  return e;
}

obs::Event run_config_event(protocols::ProtocolKind protocol, std::size_t d,
                            double threshold,
                            const protocols::BlameSpec& blame = {}) {
  return make_event(obs::EventKind::kRunConfig, blame.encode32(),
                    static_cast<std::uint64_t>(protocol), d, threshold);
}

// ------------------------------------------------------- batch equivalence

// Every protocol, the paper's reference scenario (link fault on l_4).
TEST(Equivalence, AllProtocolsReferenceScenario) {
  for (const auto protocol : kAllProtocols) {
    const BatchRun batch =
        run_with_log(runner::paper_config(protocol, 3000, 7));
    ASSERT_EQ(batch.dropped, 0u);
    ScoreEngine engine;
    for (const obs::Event& e : batch.events) engine.apply(e);
    EXPECT_EQ(engine.config().protocol, protocol);
    expect_equivalent(batch.result, engine,
                      protocols::protocol_name(protocol));
  }
}

// Every protocol under a benign fault plan (Gilbert-Elliott bursts on an
// honest link) — the stream must absorb the same noisy evidence.
TEST(Equivalence, AllProtocolsBenignFaults) {
  for (const auto protocol : kAllProtocols) {
    runner::ExperimentConfig cfg = runner::paper_config(protocol, 3000, 11);
    cfg.faults =
        faults::FaultPlan::parse("ge@2:pg=0.005,pb=0.3,g2b=0.003,b2g=0.15");
    const BatchRun batch = run_with_log(cfg);
    ASSERT_EQ(batch.dropped, 0u);
    ScoreEngine engine;
    for (const obs::Event& e : batch.events) engine.apply(e);
    expect_equivalent(batch.result, engine,
                      protocols::protocol_name(protocol));
  }
}

// Every protocol against a behavioural adversary (colluding dropper).
TEST(Equivalence, AllProtocolsAdversary) {
  for (const auto protocol : kAllProtocols) {
    runner::ExperimentConfig cfg = runner::paper_config(protocol, 3000, 13);
    cfg.link_faults.clear();
    const auto plan = adversary::AdversaryPlan::parse("collude@4:rate=0.5");
    cfg.adversaries.assign(plan.specs.begin(), plan.specs.end());
    const BatchRun batch = run_with_log(cfg);
    ASSERT_EQ(batch.dropped, 0u);
    ScoreEngine engine;
    for (const obs::Event& e : batch.events) engine.apply(e);
    expect_equivalent(batch.result, engine,
                      protocols::protocol_name(protocol));
  }
}

// Persistence mode travels through the stream: the kRunConfig prologue
// carries K, and the engine's conviction rule matches the batch one.
TEST(Equivalence, PersistentBlameModeReplays) {
  runner::ExperimentConfig cfg =
      runner::paper_config(protocols::ProtocolKind::kPaai1, 3000, 17);
  cfg.params.blame = protocols::BlameSpec::parse("persistent:3");
  const BatchRun batch = run_with_log(cfg);
  ASSERT_EQ(batch.dropped, 0u);
  ScoreEngine engine;
  for (const obs::Event& e : batch.events) engine.apply(e);
  EXPECT_EQ(engine.config().blame, cfg.params.blame);
  EXPECT_EQ(engine.config().blame.to_string(), "persistent:3");
  expect_equivalent(batch.result, engine, "paai1-persistent");
}

// Same for the window-backed modes: the kRunConfig prologue carries the
// full BlameSpec wire encoding, and every protocol's window ledger replays
// bit-identically from the same forensic events.
TEST(Equivalence, WindowedAndHybridModesReplayAllProtocols) {
  for (const char* spec : {"windowed:64", "hybrid:2,64"}) {
    for (const auto protocol : kAllProtocols) {
      SCOPED_TRACE(std::string(spec) + " / " +
                   protocols::protocol_name(protocol));
      runner::ExperimentConfig cfg =
          runner::paper_config(protocol, 2000, 19);
      cfg.params.blame = protocols::BlameSpec::parse(spec);
      const BatchRun batch = run_with_log(cfg);
      ASSERT_EQ(batch.dropped, 0u);
      ScoreEngine engine;
      for (const obs::Event& e : batch.events) engine.apply(e);
      EXPECT_EQ(engine.config().blame, cfg.params.blame);
      expect_equivalent(batch.result, engine, spec);
    }
  }
}

// Window bookkeeping is passive until a windowed blame mode reads it: a
// margin-mode run must be bit-identical — thetas, conviction set, e2e —
// to the same seed run before windows existed, which the windowed-mode
// run of the same scenario demonstrates by sharing every estimate and
// differing at most in the verdict.
TEST(Equivalence, WindowedNeverAffectsMarginMode) {
  for (const auto protocol : kAllProtocols) {
    SCOPED_TRACE(protocols::protocol_name(protocol));
    runner::ExperimentConfig margin_cfg =
        runner::paper_config(protocol, 2000, 21);
    runner::ExperimentConfig windowed_cfg = margin_cfg;
    windowed_cfg.params.blame = protocols::BlameSpec::parse("windowed:32");
    const runner::ExperimentResult margin =
        runner::run_experiment(margin_cfg);
    const runner::ExperimentResult windowed =
        runner::run_experiment(windowed_cfg);
    EXPECT_EQ(margin.packets_sent, windowed.packets_sent);
    EXPECT_EQ(margin.observations, windowed.observations);
    EXPECT_EQ(margin.observed_e2e_rate, windowed.observed_e2e_rate);
    ASSERT_EQ(margin.final_thetas.size(), windowed.final_thetas.size());
    for (std::size_t i = 0; i < margin.final_thetas.size(); ++i) {
      EXPECT_EQ(margin.final_thetas[i], windowed.final_thetas[i])
          << "theta of l_" << i;
    }
    // The windowed verdict may only ADD convictions (its extra clauses
    // are disjunctive on top of the margin rule).
    for (const std::size_t link : margin.final_convicted) {
      EXPECT_NE(std::find(windowed.final_convicted.begin(),
                          windowed.final_convicted.end(), link),
                windowed.final_convicted.end())
          << "margin conviction of l_" << link << " lost under windowed";
    }
  }
}

// ------------------------------------------------- snapshot / restore

// One protocol per table family: interrupting the stream at an arbitrary
// point, snapshotting, restoring into a fresh engine, and continuing must
// land on the exact same final state as an uninterrupted pass.
TEST(Snapshot, MidStreamRestoreIsLossless) {
  const protocols::ProtocolKind families[] = {
      protocols::ProtocolKind::kPaai1,         // ScoreTable
      protocols::ProtocolKind::kPaai2,         // Paai2ScoreTable
      protocols::ProtocolKind::kStatisticalFl, // FlScoreTable
  };
  for (const auto protocol : families) {
    SCOPED_TRACE(protocols::protocol_name(protocol));
    const BatchRun batch =
        run_with_log(runner::paper_config(protocol, 3000, 23));
    ASSERT_EQ(batch.dropped, 0u);

    ScoreEngine uninterrupted;
    for (const obs::Event& e : batch.events) uninterrupted.apply(e);

    const std::size_t cut = batch.events.size() / 2;
    ScoreEngine first_half;
    for (std::size_t i = 0; i < cut; ++i) first_half.apply(batch.events[i]);
    const std::string snapshot = state_to_string(first_half);

    ScoreEngine resumed;
    std::string error;
    ASSERT_TRUE(load_state(snapshot, &resumed, &error)) << error;
    for (std::size_t i = cut; i < batch.events.size(); ++i) {
      resumed.apply(batch.events[i]);
    }

    expect_equivalent(batch.result, resumed, "resumed");
    EXPECT_EQ(resumed.events_seen(), uninterrupted.events_seen());
    EXPECT_EQ(resumed.events_applied(), uninterrupted.events_applied());
    EXPECT_EQ(resumed.recorded_convictions().size(),
              uninterrupted.recorded_convictions().size());
  }
}

// The windowed modes carry extra per-table state (window bins + ledger);
// a mid-stream snapshot/restore must be lossless for every protocol so a
// resumed serve reaches the exact same verdict — including streak and
// flagrant history that cumulative counters cannot reconstruct.
TEST(Snapshot, WindowedAndHybridMidStreamRestoreIsLossless) {
  for (const char* spec : {"windowed:64", "hybrid:2,64"}) {
    for (const auto protocol : kAllProtocols) {
      SCOPED_TRACE(std::string(spec) + " / " +
                   protocols::protocol_name(protocol));
      runner::ExperimentConfig cfg =
          runner::paper_config(protocol, 2000, 43);
      cfg.params.blame = protocols::BlameSpec::parse(spec);
      const BatchRun batch = run_with_log(cfg);
      ASSERT_EQ(batch.dropped, 0u);

      const std::size_t cut = batch.events.size() / 2;
      ScoreEngine first_half;
      for (std::size_t i = 0; i < cut; ++i) {
        first_half.apply(batch.events[i]);
      }
      const std::string snapshot = state_to_string(first_half);

      ScoreEngine resumed;
      std::string error;
      ASSERT_TRUE(load_state(snapshot, &resumed, &error)) << error;
      EXPECT_EQ(resumed.config().blame, cfg.params.blame);
      for (std::size_t i = cut; i < batch.events.size(); ++i) {
        resumed.apply(batch.events[i]);
      }
      expect_equivalent(batch.result, resumed, spec);

      // The snapshot itself must also round-trip byte-identically (the
      // window objects are part of the canonical serialization).
      ScoreEngine reloaded;
      ASSERT_TRUE(load_state(snapshot, &reloaded, &error)) << error;
      EXPECT_EQ(state_to_string(reloaded), snapshot);
    }
  }
}

// A legacy snapshot (no "window" objects, no "blame" field) must restore
// fail-safe: accepted, margin mode, clean window ledger. A present but
// malformed window object must be rejected, never half-applied.
TEST(Snapshot, WindowStateFailsClosed) {
  const BatchRun batch = run_with_log(
      runner::paper_config(protocols::ProtocolKind::kPaai1, 500, 47));
  ScoreEngine engine;
  for (const obs::Event& e : batch.events) engine.apply(e);
  std::string snapshot = state_to_string(engine);

  // Tamper: unsupported window state version.
  const std::string versioned = R"("v":1,"w")";
  const std::size_t at = snapshot.find(versioned);
  ASSERT_NE(at, std::string::npos) << snapshot;
  std::string tampered = snapshot;
  tampered.replace(at, versioned.size(), R"("v":9,"w")");
  ScoreEngine rejected;
  std::string error;
  EXPECT_FALSE(load_state(tampered, &rejected, &error));
  EXPECT_NE(error.find("window"), std::string::npos) << error;
}

TEST(Snapshot, StateRoundTripsByteIdentically) {
  const BatchRun batch = run_with_log(
      runner::paper_config(protocols::ProtocolKind::kFullAck, 1000, 29));
  ScoreEngine engine;
  for (const obs::Event& e : batch.events) engine.apply(e);
  const std::string once = state_to_string(engine);
  ScoreEngine reloaded;
  std::string error;
  ASSERT_TRUE(load_state(once, &reloaded, &error)) << error;
  EXPECT_EQ(state_to_string(reloaded), once);
}

TEST(Snapshot, LoadRejectsGarbage) {
  ScoreEngine engine;
  std::string error;
  EXPECT_FALSE(load_state("not json", &engine, &error));
  EXPECT_FALSE(load_state("{}", &engine, &error));
  EXPECT_FALSE(load_state(R"({"schema":"paai.state.v2"})", &engine, &error));
  // Valid schema, wrong table shape.
  EXPECT_FALSE(load_state(
      R"({"schema":"paai.state.v1","protocol":1,"links":6,"threshold":0.018,)"
      R"("persistence":"0","events_seen":"0","events_applied":"0",)"
      R"("packets_sent":"0","delivered":"0","run_ended":false,)"
      R"("recorded_convictions":[],)"
      R"("table":{"kind":"onion","s":["0","0"],"n":"0","probes":"0"}})",
      &engine, &error));
  EXPECT_NE(error.find("shape"), std::string::npos);
}

// Integer fields of a snapshot must be integers in range. An edited
// document with a fractional, huge or negative links, protocol, window
// version or conviction link is rejected instead of cast ("links":6.7
// used to restore a 6-link engine; 1e300 was an undefined float->int
// conversion).
TEST(Snapshot, RejectsNonIntegerAndOutOfRangeIntegers) {
  const BatchRun batch = run_with_log(
      runner::paper_config(protocols::ProtocolKind::kPaai1, 3000, 7));
  ScoreEngine engine;
  for (const obs::Event& e : batch.events) engine.apply(e);
  ASSERT_FALSE(engine.recorded_convictions().empty());
  const std::string snapshot = state_to_string(engine);
  {
    ScoreEngine reloaded;
    std::string error;
    ASSERT_TRUE(load_state(snapshot, &reloaded, &error)) << error;
    EXPECT_EQ(state_to_string(reloaded), snapshot);
  }

  const std::string record = R"("recorded_convictions":[{"link":)";
  const std::size_t link_at = snapshot.find(record);
  ASSERT_NE(link_at, std::string::npos) << snapshot;
  const std::size_t digits_end =
      snapshot.find(',', link_at + record.size());
  std::string fractional_link = snapshot;
  fractional_link.insert(digits_end, ".5");

  const struct {
    const char* from;
    const char* to;
  } edits[] = {
      {R"("links":6,)", R"("links":6.7,)"},
      {R"("links":6,)", R"("links":1e300,)"},
      {R"("links":6,)", R"("links":0,)"},
      {R"("v":1,"w")", R"("v":1.5,"w")"},
      {R"("protocol":1,)", R"("protocol":-1,)"},
      {R"("protocol":1,)", R"("protocol":1.5,)"},
  };
  std::vector<std::string> tampered = {fractional_link};
  for (const auto& edit : edits) {
    const std::size_t at = snapshot.find(edit.from);
    ASSERT_NE(at, std::string::npos) << edit.from;
    std::string doc = snapshot;
    doc.replace(at, std::strlen(edit.from), edit.to);
    tampered.push_back(doc);
  }
  for (const std::string& doc : tampered) {
    ScoreEngine rejected;
    std::string error;
    EXPECT_FALSE(load_state(doc, &rejected, &error)) << doc;
  }
}

// ------------------------------------------------------------- the engine

TEST(Engine, ScoreEventBeforeConfigThrows) {
  ScoreEngine engine;
  EXPECT_THROW(engine.apply(make_event(obs::EventKind::kScoreClean)),
               std::runtime_error);
  EXPECT_THROW(engine.apply(make_event(obs::EventKind::kDataSend)),
               std::runtime_error);
}

TEST(Engine, RunConfigMismatchThrows) {
  ScoreEngine engine;
  engine.apply(
      run_config_event(protocols::ProtocolKind::kPaai1, 6, 0.018));
  ASSERT_TRUE(engine.configured());
  // Same config again is fine (concatenated identical runs).
  EXPECT_NO_THROW(engine.apply(
      run_config_event(protocols::ProtocolKind::kPaai1, 6, 0.018)));
  EXPECT_THROW(engine.apply(run_config_event(
                   protocols::ProtocolKind::kFullAck, 6, 0.018)),
               std::runtime_error);
  EXPECT_THROW(
      engine.apply(run_config_event(protocols::ProtocolKind::kPaai1, 7,
                                    0.018)),
      std::runtime_error);
}

TEST(Engine, CrossProtocolEventsThrow) {
  ScoreEngine engine(
      EngineConfig{protocols::ProtocolKind::kPaai1, 6, 0.018});
  EXPECT_THROW(engine.apply(make_event(obs::EventKind::kFlCount, 2, 0, 10)),
               std::runtime_error);
  EXPECT_THROW(
      engine.apply(make_event(obs::EventKind::kScoreBlame, /*link=*/9)),
      std::runtime_error);
  EXPECT_THROW(
      engine.apply(make_event(obs::EventKind::kScoreBlame, /*link=*/-1)),
      std::runtime_error);
}

TEST(Engine, ConvictionTransitionsFireOnce) {
  ScoreEngine engine(
      EngineConfig{protocols::ProtocolKind::kPaai1, 6, 0.001});
  // Enough clean mass plus repeated blames of l_3 to cross the margin.
  for (int i = 0; i < 50; ++i) {
    engine.apply(make_event(obs::EventKind::kScoreClean));
  }
  EXPECT_TRUE(engine.take_new_convictions().empty());
  for (int i = 0; i < 50; ++i) {
    engine.apply(make_event(obs::EventKind::kScoreBlame, /*link=*/3));
  }
  const std::vector<std::size_t> fresh = engine.take_new_convictions();
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0], 3u);
  // Already announced: no re-announcement while convicted.
  EXPECT_TRUE(engine.take_new_convictions().empty());
}

// ------------------------------------------------- the ledger, no simulator

/// Drives a seeded random mutation sequence through `ledger`'s batch
/// methods, in the shapes the protocol's source produces: sends with
/// optional sampling marks, timeouts, and clean/blame resolutions (PAAI-2
/// prefix outcomes with a selected node; statfl per-node counts folded
/// per interval). Link 4 draws most of the loss so convictions occur.
void drive_batch(protocols::ScoreLedger& ledger, std::uint64_t seed,
                 int steps) {
  Rng rng(seed);
  const std::size_t d = ledger.num_links();
  std::uint64_t interval = 0;
  for (int i = 0; i < steps; ++i) {
    const std::uint64_t id = rng.next_u64();
    const std::uint64_t seq = ledger.packets_sent();
    ledger.send(id, seq);
    if (rng.bernoulli(0.3)) ledger.sample_select(id, seq);
    switch (ledger.kind()) {
      case protocols::ProtocolKind::kStatisticalFl:
        if (ledger.packets_sent() % 10 != 0) break;
        if (rng.bernoulli(0.1)) {
          ledger.ack_timeout(interval, /*attempts=*/3);
        } else {
          std::uint64_t count = 20 + rng.next_below(10);
          for (std::size_t node = 0; node <= d; ++node) {
            ledger.fl_count(static_cast<std::int32_t>(node), interval, count);
            const double loss = node == 4 ? 0.3 : 0.05;
            if (count > 0 && rng.bernoulli(loss)) --count;
          }
          ledger.clean(interval);
        }
        ++interval;
        break;
      case protocols::ProtocolKind::kPaai2:
      case protocols::ProtocolKind::kCombination2: {
        if (!rng.bernoulli(0.2)) break;
        ledger.ack_timeout(id);
        const std::uint64_t selected = 1 + rng.next_below(d);
        // Prefixes that include l_4 fail far more often.
        if (rng.bernoulli(selected > 4 ? 0.4 : 0.05)) {
          ledger.blame(-1, id, selected);
        } else {
          ledger.clean(id, selected);
        }
        break;
      }
      default:
        if (rng.bernoulli(0.2)) ledger.ack_timeout(id);
        if (rng.bernoulli(0.1)) {
          const std::uint64_t link = rng.bernoulli(0.5) ? 4 : rng.next_below(d);
          ledger.blame(static_cast<std::int32_t>(link), id);
        } else {
          ledger.clean(id);
        }
        break;
    }
  }
}

void expect_same_ledger(const ScoreEngine& want, const ScoreEngine& got) {
  EXPECT_EQ(got.packets_sent(), want.packets_sent());
  EXPECT_EQ(got.observations(), want.observations());
  EXPECT_EQ(got.observed_e2e_rate(), want.observed_e2e_rate());
  EXPECT_EQ(got.thetas(), want.thetas());  // exact double equality
  EXPECT_EQ(got.convicted(), want.convicted());
  EXPECT_EQ(state_to_string(got), state_to_string(want));
}

// Batch ≡ stream at the ledger level: the events a batch ledger logs,
// applied to a fresh ledger — and to one restored from a mid-sequence
// snapshot — reproduce its state bit for bit, for every protocol under
// the margin rule and a window-backed rule.
TEST(Ledger, LoggedEventsReplayBitIdentically) {
  for (const char* spec : {"margin", "hybrid:3,64"}) {
    for (const auto protocol : kAllProtocols) {
      SCOPED_TRACE(std::string(spec) + " / " +
                   protocols::protocol_name(protocol));
      EngineConfig cfg;
      cfg.protocol = protocol;
      cfg.num_links = 6;
      cfg.threshold = 0.02;
      cfg.blame = protocols::BlameSpec::parse(spec);

      ScoreEngine batch(cfg);
      obs::EventLog log(1 << 16);
      batch.mutable_ledger()->log_to(&log, /*clock=*/nullptr);
      drive_batch(*batch.mutable_ledger(),
                  0x1ed9e5 + static_cast<std::uint64_t>(protocol), 4000);
      ASSERT_EQ(log.dropped(), 0u);
      const std::vector<obs::Event> events = log.merged();

      ScoreEngine fresh(cfg);
      for (const obs::Event& e : events) fresh.apply(e);

      const std::size_t half = events.size() / 2;
      ScoreEngine first(cfg);
      for (std::size_t i = 0; i < half; ++i) first.apply(events[i]);
      ScoreEngine resumed;
      std::string error;
      ASSERT_TRUE(load_state(state_to_string(first), &resumed, &error))
          << error;
      for (std::size_t i = half; i < events.size(); ++i) {
        resumed.apply(events[i]);
      }

      // events_seen/applied are the stream's own bookkeeping, not ledger
      // state: the batch side fed nothing through apply().
      batch.restore_counters(fresh.events_seen(), fresh.events_applied(),
                             /*run_ended=*/false, {});
      expect_same_ledger(batch, fresh);
      expect_same_ledger(batch, resumed);
      EXPECT_GT(batch.observations(), 0u);
    }
  }
}

/// Applies `bad` to `engine` and requires a std::runtime_error that leaves
/// the estimates, observations and the whole snapshot document untouched.
void expect_rejected_cleanly(ScoreEngine& engine, const obs::Event& bad) {
  const std::vector<double> thetas = engine.thetas();
  const std::uint64_t observations = engine.observations();
  const std::string state = state_to_string(engine);
  EXPECT_THROW(engine.apply(bad), std::runtime_error);
  EXPECT_EQ(engine.thetas(), thetas);
  EXPECT_EQ(engine.observations(), observations);
  EXPECT_EQ(state_to_string(engine), state);
}

TEST(Ledger, RejectedOnionBlameChangesNothing) {
  ScoreEngine engine(EngineConfig{protocols::ProtocolKind::kPaai1, 6, 0.018,
                                  protocols::BlameSpec{}});
  for (int i = 0; i < 20; ++i) {
    engine.apply(make_event(obs::EventKind::kScoreClean));
    engine.apply(make_event(obs::EventKind::kScoreBlame, /*link=*/2));
  }
  expect_rejected_cleanly(engine,
                          make_event(obs::EventKind::kScoreBlame, /*link=*/6));
  expect_rejected_cleanly(engine,
                          make_event(obs::EventKind::kScoreBlame, /*link=*/-1));
  expect_rejected_cleanly(engine, make_event(obs::EventKind::kFlCount, 2, 0, 9));
}

TEST(Ledger, RejectedPrefixSelectionChangesNothing) {
  ScoreEngine engine(EngineConfig{protocols::ProtocolKind::kPaai2, 6, 0.018,
                                  protocols::BlameSpec{}});
  for (std::uint64_t i = 0; i < 30; ++i) {
    engine.apply(make_event(obs::EventKind::kDataSend, -1, i, i));
    engine.apply(make_event(obs::EventKind::kScoreBlame, -1, i, 1 + i % 6));
  }
  for (const std::uint64_t selected : {std::uint64_t{0}, std::uint64_t{7}}) {
    expect_rejected_cleanly(
        engine, make_event(obs::EventKind::kScoreBlame, -1, 0, selected));
    expect_rejected_cleanly(
        engine, make_event(obs::EventKind::kScoreClean, -1, 0, selected));
  }
}

TEST(Ledger, RejectedFlCountChangesNothing) {
  ScoreEngine engine(EngineConfig{protocols::ProtocolKind::kStatisticalFl, 6,
                                  0.018, protocols::BlameSpec{}});
  for (std::int32_t node = 0; node <= 6; ++node) {
    engine.apply(make_event(obs::EventKind::kFlCount, node, 0, 100 - node));
  }
  engine.apply(make_event(obs::EventKind::kScoreClean, -1, 0));
  expect_rejected_cleanly(engine, make_event(obs::EventKind::kFlCount, 7, 1, 5));
  expect_rejected_cleanly(engine,
                          make_event(obs::EventKind::kFlCount, -1, 1, 5));
  expect_rejected_cleanly(engine,
                          make_event(obs::EventKind::kScoreBlame, /*link=*/3));
}

// ------------------------------------------------------- persistence rule

TEST(Persistence, RequiresKRepetitions) {
  protocols::ScoreTable table(6, /*traversals=*/1.0);
  table.set_blame(protocols::BlameSpec::parse("persistent:3"));
  for (int i = 0; i < 200; ++i) table.add_clean();
  table.blame(4);
  table.blame(4);
  // theta(4) ~ 2/202 ≈ 0.0099 — far above a 0.001 threshold, but only two
  // first-failing-hop observations: not convictable yet.
  EXPECT_TRUE(table.convicted(0.001).empty());
  table.blame(4);
  const std::vector<std::size_t> convicted = table.convicted(0.001);
  ASSERT_EQ(convicted.size(), 1u);
  EXPECT_EQ(convicted[0], 4u);
}

TEST(Persistence, ReplacesMarginNotThreshold) {
  protocols::ScoreTable table(6, /*traversals=*/1.0);
  table.set_blame(protocols::BlameSpec::parse("persistent:2"));
  for (int i = 0; i < 100; ++i) table.add_clean();
  table.blame(1);
  table.blame(1);
  // theta(1) ~ 2/102 ≈ 0.0196: above a 0.01 threshold (convict), below a
  // 0.05 threshold (not) — K alone never convicts.
  EXPECT_EQ(table.convicted(0.01).size(), 1u);
  EXPECT_TRUE(table.convicted(0.05).empty());
}

// ------------------------------------------------------ blame spec grammar

TEST(BlameSpec, ParsesEveryModeAndRoundTrips) {
  const char* specs[] = {"margin", "persistent:3", "windowed:192",
                         "hybrid:4,192"};
  for (const char* spec : specs) {
    SCOPED_TRACE(spec);
    const protocols::BlameSpec parsed = protocols::BlameSpec::parse(spec);
    EXPECT_EQ(parsed.to_string(), spec);
    // Wire round trip: encode32 -> decode32 is the kRunConfig path.
    EXPECT_EQ(protocols::BlameSpec::decode32(parsed.encode32()), parsed);
  }
  // Defaults: bare modes pick the calibrated parameters.
  EXPECT_EQ(protocols::BlameSpec::parse("persistent").k,
            protocols::kDefaultPersistence);
  EXPECT_EQ(protocols::BlameSpec::parse("windowed").w,
            protocols::kDefaultWindowWidth);
  const protocols::BlameSpec hybrid = protocols::BlameSpec::parse("hybrid");
  EXPECT_EQ(hybrid.k, protocols::kDefaultHybridStreak);
  EXPECT_EQ(hybrid.w, protocols::kDefaultWindowWidth);
  // Persistent keeps the PR 7 bare-K wire format.
  EXPECT_EQ(protocols::BlameSpec::parse("persistent:3").encode32(), 3);
  EXPECT_EQ(protocols::BlameSpec::parse("margin").encode32(), 0);
}

TEST(BlameSpec, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",             // empty
      "turbo",        // unknown mode
      "standard",     // retired alias for margin
      "margin:1",     // margin takes no argument
      "persistent:0", // K out of range
      "windowed:7",   // below the minimum width
      "windowed:0",   // zero width
      "hybrid:9,64",  // streak above the ring capacity
      "hybrid:2,x",   // non-numeric width
  };
  for (const char* spec : bad) {
    SCOPED_TRACE(spec);
    EXPECT_THROW(protocols::BlameSpec::parse(spec), std::invalid_argument);
  }
  EXPECT_THROW(protocols::BlameSpec::decode32(-1), std::invalid_argument);
}

// -------------------------------------------------------- event reader

std::string to_jsonl(const std::vector<obs::Event>& events) {
  obs::EventLog log(events.size() + 1);
  for (const obs::Event& e : events) {
    log.append(e.node, e.kind, e.ts_ns, e.link, e.a, e.b, e.value);
  }
  std::ostringstream os;
  log.write_jsonl(os);
  return os.str();
}

TEST(Reader, RoundTripsAndCounts) {
  std::vector<obs::Event> events;
  events.push_back(make_event(obs::EventKind::kDataSend, -1, 42, 7));
  events.push_back(make_event(obs::EventKind::kScoreBlame, 3, 42, 1, 0.5));
  const std::string jsonl = "\n" + to_jsonl(events) + "\n\n";

  std::istringstream is(jsonl);
  obs::EventReader reader(is);
  obs::Event e;
  std::string error;
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEvent);
  EXPECT_EQ(e.kind, obs::EventKind::kDataSend);
  EXPECT_EQ(e.a, 42u);
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEvent);
  EXPECT_EQ(e.kind, obs::EventKind::kScoreBlame);
  EXPECT_EQ(e.link, 3);
  EXPECT_EQ(e.value, 0.5);
  EXPECT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEof);
  EXPECT_EQ(reader.events(), 2u);
  EXPECT_EQ(reader.errors(), 0u);
}

TEST(Reader, ErrorsCarryLineNumbersAndReaderSurvives) {
  const std::string good =
      to_jsonl({make_event(obs::EventKind::kDataSend, -1, 1, 0)});
  const std::string jsonl = good + "this is not json\n" + good;
  std::istringstream is(jsonl);
  obs::EventReader reader(is);
  obs::Event e;
  std::string error;
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEvent);
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kError);
  EXPECT_NE(error.find("line 2:"), std::string::npos) << error;
  // Count-and-continue: the reader moves past the bad line.
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEvent);
  EXPECT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEof);
  EXPECT_EQ(reader.events(), 2u);
  EXPECT_EQ(reader.errors(), 1u);
}

TEST(Reader, RejectsMistypedFields) {
  const char* bad_lines[] = {
      // ts_ns as string
      R"({"ts_ns":"0","node":0,"seq":0,"kind":"data-send","a":"1","b":"0","v":0})",
      // unknown kind
      R"({"ts_ns":0,"node":0,"seq":0,"kind":"no-such-kind","a":"1","b":"0","v":0})",
      // a as JSON number instead of a decimal string
      R"({"ts_ns":0,"node":0,"seq":0,"kind":"data-send","a":1,"b":"0","v":0})",
      // missing seq
      R"({"ts_ns":0,"node":0,"kind":"data-send","a":"1","b":"0","v":0})",
      // v as string
      R"({"ts_ns":0,"node":0,"seq":0,"kind":"data-send","a":"1","b":"0","v":"x"})",
      // not an object
      R"([1,2,3])",
      // node beyond uint16 (used to wrap silently to node 0)
      R"({"ts_ns":0,"node":65536,"seq":0,"kind":"data-send","a":"1","b":"0","v":0})",
      // fractional node (used to truncate silently to node 0)
      R"({"ts_ns":0,"node":0.75,"seq":0,"kind":"data-send","a":"1","b":"0","v":0})",
      // negative node
      R"({"ts_ns":0,"node":-1,"seq":0,"kind":"data-send","a":"1","b":"0","v":0})",
      // link beyond int32 (an out-of-range float->int conversion before)
      R"({"ts_ns":0,"node":0,"seq":0,"kind":"score-blame","link":3e10,"a":"1","b":"0","v":0})",
      // negative and fractional links
      R"({"ts_ns":0,"node":0,"seq":0,"kind":"score-blame","link":-1,"a":"1","b":"0","v":0})",
      R"({"ts_ns":0,"node":0,"seq":0,"kind":"score-blame","link":2.5,"a":"1","b":"0","v":0})",
      // ts_ns and seq at or beyond 2^53 (no longer exact in a double)
      R"({"ts_ns":9007199254740992,"node":0,"seq":0,"kind":"data-send","a":"1","b":"0","v":0})",
      R"({"ts_ns":-9007199254740993,"node":0,"seq":0,"kind":"data-send","a":"1","b":"0","v":0})",
      R"({"ts_ns":0,"node":0,"seq":9007199254740992,"kind":"data-send","a":"1","b":"0","v":0})",
      // fractional ts_ns and negative seq
      R"({"ts_ns":0.5,"node":0,"seq":0,"kind":"data-send","a":"1","b":"0","v":0})",
      R"({"ts_ns":0,"node":0,"seq":-1,"kind":"data-send","a":"1","b":"0","v":0})",
      // signed or space-led decimal strings in a/b (strtoull would wrap
      // "-1" to 2^64 - 1)
      R"({"ts_ns":0,"node":0,"seq":0,"kind":"data-send","a":"-1","b":"0","v":0})",
      R"({"ts_ns":0,"node":0,"seq":0,"kind":"data-send","a":"1","b":" 5","v":0})",
      R"({"ts_ns":0,"node":0,"seq":0,"kind":"data-send","a":"+1","b":"0","v":0})",
  };
  for (const char* line : bad_lines) {
    SCOPED_TRACE(line);
    std::istringstream is(std::string(line) + "\n");
    obs::EventReader reader(is);
    obs::Event e;
    std::string error;
    EXPECT_EQ(reader.next(&e, &error), obs::EventReader::Status::kError);
    EXPECT_NE(error.find("line 1:"), std::string::npos) << error;
  }
}

// The integer fields' largest legal values decode exactly.
TEST(Reader, AcceptsIntegerFieldBoundaries) {
  std::istringstream is(
      R"({"ts_ns":-9007199254740991,"node":65535,"seq":9007199254740991,)"
      R"("kind":"score-blame","link":2147483647,"a":"18446744073709551615",)"
      R"("b":"0","v":0})"
      "\n");
  obs::EventReader reader(is);
  obs::Event e;
  std::string error;
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEvent)
      << error;
  EXPECT_EQ(e.ts_ns, -9007199254740991LL);
  EXPECT_EQ(e.node, 65535u);
  EXPECT_EQ(e.seq, 9007199254740991ULL);
  EXPECT_EQ(e.link, 2147483647);
  EXPECT_EQ(e.a, 18446744073709551615ULL);
}

// Fuzz-style: every strict prefix of a valid line must be rejected (a
// truncated tail from a killed producer), and deterministic byte
// corruption must never crash the reader — it either still parses or
// reports a line-numbered error.
TEST(Reader, TruncationAndCorruptionFuzz) {
  const std::string line = to_jsonl(
      {make_event(obs::EventKind::kScoreBlame, 4, 0xdeadbeefULL, 9, 0.25)});
  ASSERT_FALSE(line.empty());
  const std::string body = line.substr(0, line.size() - 1);  // strip '\n'

  for (std::size_t len = 1; len < body.size(); ++len) {
    std::istringstream is(body.substr(0, len) + "\n");
    obs::EventReader reader(is);
    obs::Event e;
    std::string error;
    EXPECT_EQ(reader.next(&e, &error), obs::EventReader::Status::kError)
        << "prefix length " << len;
  }

  // The same prefixes WITHOUT the newline: a torn tail must be rejected
  // as unterminated even when the fragment would parse as valid JSON.
  for (std::size_t len = 1; len <= body.size(); ++len) {
    std::istringstream is(body.substr(0, len));
    obs::EventReader reader(is);
    obs::Event e;
    std::string error;
    EXPECT_EQ(reader.next(&e, &error), obs::EventReader::Status::kError)
        << "unterminated prefix length " << len;
    EXPECT_NE(error.find("unterminated"), std::string::npos) << error;
  }

  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  auto next_rand = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = body;
    const std::size_t flips = 1 + next_rand() % 4;
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[next_rand() % mutated.size()] =
          static_cast<char>(next_rand() % 256);
    }
    std::istringstream is(mutated + "\n");
    obs::EventReader reader(is);
    obs::Event e;
    std::string error;
    const auto status = reader.next(&e, &error);
    if (status == obs::EventReader::Status::kError) {
      EXPECT_NE(error.find("line"), std::string::npos);
    }
  }
}

// A stream that ends mid-line (killed producer, torn pipe) must be a
// line-numbered hard error, not a silently-parsed fragment.
TEST(Reader, UnterminatedFinalLineIsError) {
  const std::string line = to_jsonl(
      {make_event(obs::EventKind::kDataSend, -1, 1, 0)});
  const std::string body = line.substr(0, line.size() - 1);  // strip '\n'
  std::istringstream is(line + body);  // good line, then truncated tail
  obs::EventReader reader(is);
  obs::Event e;
  std::string error;
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEvent);
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kError);
  EXPECT_NE(error.find("line 2:"), std::string::npos) << error;
  EXPECT_NE(error.find("unterminated"), std::string::npos) << error;
  EXPECT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEof);
  EXPECT_EQ(reader.errors(), 1u);
}

// A newline-free garbage line longer than the cap must fail fast with the
// line number — bounded buffering, never an O(stream) allocation — and
// the reader must stay usable on the next line.
TEST(Reader, OversizedLineFailsFastAndReaderSurvives) {
  const std::string good = to_jsonl(
      {make_event(obs::EventKind::kDataSend, -1, 1, 0)});
  const std::string huge(obs::EventReader::kMaxLineBytes + 16, 'x');
  std::istringstream is(good + huge + "\n" + good);
  obs::EventReader reader(is);
  obs::Event e;
  std::string error;
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEvent);
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kError);
  EXPECT_NE(error.find("line 2:"), std::string::npos) << error;
  EXPECT_NE(error.find("maximum line length"), std::string::npos) << error;
  // Count-and-continue: the oversized tail was discarded, line 3 parses.
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEvent);
  EXPECT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEof);
  EXPECT_EQ(reader.events(), 2u);
  EXPECT_EQ(reader.errors(), 1u);
}

// An oversized line that is ALSO the unterminated tail reports the length
// cap (the earlier, more specific failure).
TEST(Reader, OversizedUnterminatedTailIsError) {
  const std::string huge(obs::EventReader::kMaxLineBytes + 16, 'x');
  std::istringstream is(huge);  // no newline at all
  obs::EventReader reader(is);
  obs::Event e;
  std::string error;
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kError);
  EXPECT_NE(error.find("line 1:"), std::string::npos) << error;
  EXPECT_NE(error.find("maximum line length"), std::string::npos) << error;
  EXPECT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEof);
}

TEST(Reader, ReadJsonlWrapperFailsClosed) {
  std::istringstream is("garbage\n");
  std::string error;
  const std::vector<obs::Event> events = obs::EventLog::read_jsonl(is, &error);
  EXPECT_TRUE(events.empty());
  EXPECT_NE(error.find("line 1:"), std::string::npos);
}

// A stream that serves one line per underflow() and counts the calls:
// the reader must hand back each event having asked for no byte past that
// event's '\n', so `paai serve` on a FIFO never blocks on a line it has
// not yet been sent.
class LinePerUnderflow : public std::streambuf {
 public:
  explicit LinePerUnderflow(std::vector<std::string> lines)
      : lines_(std::move(lines)) {}

  std::size_t underflows() const { return underflows_; }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    ++underflows_;
    if (next_ == lines_.size()) return traits_type::eof();
    std::string& line = lines_[next_++];
    setg(line.data(), line.data(), line.data() + line.size());
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::vector<std::string> lines_;
  std::size_t next_ = 0;
  std::size_t underflows_ = 0;
};

TEST(Reader, ReturnsEachEventBeforeRequestingTheNextLine) {
  std::vector<std::string> lines;
  for (std::uint64_t i = 0; i < 5; ++i) {
    lines.push_back(to_jsonl({make_event(obs::EventKind::kDataSend, -1, i, i)}));
  }
  LinePerUnderflow buf(lines);
  std::istream is(&buf);
  obs::EventReader reader(is);
  obs::Event e;
  std::string error;
  for (std::uint64_t i = 0; i < lines.size(); ++i) {
    ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEvent)
        << error;
    EXPECT_EQ(e.a, i);
    EXPECT_EQ(buf.underflows(), i + 1) << "read past line " << i + 1;
  }
  EXPECT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEof);
  EXPECT_EQ(reader.bytes(), to_jsonl({make_event(obs::EventKind::kDataSend)})
                                    .size() *
                                lines.size());
}

// The writer's own lines decode whatever order and JSON whitespace they
// arrive in: keys reordered, spaces after ',' and ':', CRLF endings.
TEST(Reader, AcceptsReorderedKeysWhitespaceAndCrlf) {
  const std::string jsonl =
      R"({"v":0.25, "b":"9","a":"7" ,"link":4,"kind":"score-blame",)"
      R"( "seq":3,"node":2,"ts_ns":-5})"
      "\r\n"
      "\t{ \"ts_ns\" : 1 , \"node\" : 0 , \"seq\" : 0 , \"kind\" : "
      "\"data-send\" } \r\n";
  std::istringstream is(jsonl);
  obs::EventReader reader(is);
  obs::Event e;
  std::string error;
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEvent)
      << error;
  EXPECT_EQ(e.ts_ns, -5);
  EXPECT_EQ(e.node, 2u);
  EXPECT_EQ(e.seq, 3u);
  EXPECT_EQ(e.kind, obs::EventKind::kScoreBlame);
  EXPECT_EQ(e.link, 4);
  EXPECT_EQ(e.a, 7u);
  EXPECT_EQ(e.b, 9u);
  EXPECT_EQ(e.value, 0.25);
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEvent)
      << error;
  EXPECT_EQ(e.ts_ns, 1);
  EXPECT_EQ(e.link, -1);
  EXPECT_EQ(e.a, 0u);
  EXPECT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEof);
}

// ------------------------------------------ the scanner vs the DOM oracle

/// The event decode EventReader used before its single-pass scanner: a
/// json_parse DOM walk, kept here as the differential oracle. It ignores
/// unknown keys, takes the first of duplicate keys, decodes escapes and
/// reads integer fields through a double, so it accepts the inputs the
/// scanner newly rejects (see NewRejection).
bool parse_event_line(const std::string& line, obs::Event* out,
                      std::string* what) {
  std::string parse_error;
  const auto doc = obs::json_parse(line, &parse_error);
  if (!doc.has_value()) {
    *what = parse_error;
    return false;
  }
  if (!doc->is_object()) {
    *what = "not a JSON object";
    return false;
  }

  obs::Event e;
  const obs::JsonValue* kind = doc->find("kind");
  std::int64_t ts = 0, node = 0, seq = 0;
  if (!obs::json_integer(doc->find("ts_ns"), -obs::kJsonMaxExactInt,
                         obs::kJsonMaxExactInt, &ts) ||
      !obs::json_integer(doc->find("node"), 0, 65535, &node) ||
      !obs::json_integer(doc->find("seq"), 0, obs::kJsonMaxExactInt, &seq) ||
      kind == nullptr || !kind->is_string()) {
    *what = "missing, mistyped or out-of-range ts_ns/node/seq/kind";
    return false;
  }
  e.ts_ns = ts;
  e.node = static_cast<std::uint16_t>(node);
  e.seq = static_cast<std::uint64_t>(seq);
  const auto k = obs::event_kind_from_name(kind->string);
  if (!k.has_value()) {
    *what = "unknown kind \"" + kind->string + "\"";
    return false;
  }
  e.kind = *k;

  const auto parse_u64 = [](const obs::JsonValue& v, std::uint64_t* x) {
    // Digits only: strtoull alone would accept a sign and leading space.
    if (!v.is_string() || v.string.empty() || v.string[0] < '0' ||
        v.string[0] > '9') {
      return false;
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long parsed =
        std::strtoull(v.string.c_str(), &end, 10);
    if (errno != 0 || end != v.string.c_str() + v.string.size()) return false;
    *x = parsed;
    return true;
  };
  if (const obs::JsonValue* link = doc->find("link")) {
    std::int64_t l = 0;
    if (!obs::json_integer(link, 0, 2147483647, &l)) {
      *what = "mistyped link";
      return false;
    }
    e.link = static_cast<std::int32_t>(l);
  }
  if (const obs::JsonValue* a = doc->find("a")) {
    if (!parse_u64(*a, &e.a)) {
      *what = "mistyped a";
      return false;
    }
  }
  if (const obs::JsonValue* b = doc->find("b")) {
    if (!parse_u64(*b, &e.b)) {
      *what = "mistyped b";
      return false;
    }
  }
  if (const obs::JsonValue* v = doc->find("v")) {
    // Non-finite doubles are emitted as null; map them back to 0.
    if (!v->is_number() && !v->is_null()) {
      *what = "mistyped v";
      return false;
    }
    e.value = v->is_number() ? v->number : 0.0;
  }
  *out = e;
  return true;
}

/// The line write_jsonl produced before its table-driven formatter.
std::string json_writer_line(const obs::Event& e) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("ts_ns").value(e.ts_ns);
  w.key("node").value(static_cast<std::int64_t>(e.node));
  w.key("seq").value(e.seq);
  w.key("kind").value(obs::event_kind_name(e.kind));
  if (e.link >= 0) w.key("link").value(static_cast<std::int64_t>(e.link));
  w.key("a").value(std::to_string(e.a));
  w.key("b").value(std::to_string(e.b));
  w.key("v").value(e.value);
  w.end_object();
  os << '\n';
  return os.str();
}

/// Event equality down to the bits of `v` (operator== calls -0 and 0
/// equal).
bool same_event_bits(const obs::Event& x, const obs::Event& y) {
  return x == y && std::memcmp(&x.value, &y.value, sizeof x.value) == 0;
}

std::vector<std::string> split_lines(const std::string& jsonl) {
  std::vector<std::string> lines;
  std::size_t at = 0;
  while (at < jsonl.size()) {
    const std::size_t nl = jsonl.find('\n', at);
    lines.push_back(jsonl.substr(at, nl - at));
    at = nl + 1;
  }
  return lines;
}

// Every line of produced logs — all protocols, margin and hybrid blame,
// with and without a GE + outage fault plan — decodes to the oracle's
// event, and the table-driven writer reproduces the JsonWriter bytes.
TEST(Scanner, MatchesDomOracleOnProducedLogs) {
  std::size_t lines_checked = 0;
  for (const char* blame : {"margin", "hybrid:3,64"}) {
    for (const bool faulty : {false, true}) {
      for (const auto protocol : kAllProtocols) {
        SCOPED_TRACE(std::string(blame) + (faulty ? " faults " : " ") +
                     protocols::protocol_name(protocol));
        runner::ExperimentConfig cfg =
            runner::paper_config(protocol, 400, 53);
        cfg.params.blame = protocols::BlameSpec::parse(blame);
        if (faulty) {
          cfg.faults = faults::FaultPlan::parse(
              "ge@2:pg=0.005,pb=0.3,g2b=0.003,b2g=0.15;outage@3:t=1,dur=0.5");
        }
        const BatchRun batch = run_with_log(cfg);
        ASSERT_EQ(batch.dropped, 0u);
        std::string expected_jsonl;
        for (const obs::Event& e : batch.events) {
          expected_jsonl += json_writer_line(e);
        }
        const std::string jsonl = to_jsonl(batch.events);
        ASSERT_EQ(jsonl, expected_jsonl);
        if (faulty) {
          EXPECT_NE(jsonl.find("node-crash"), std::string::npos);
        }
        for (const std::string& line : split_lines(jsonl)) {
          obs::Event scanned, oracle;
          std::string what;
          ASSERT_TRUE(obs::scan_event_line(line, &scanned, &what))
              << line << ": " << what;
          ASSERT_TRUE(parse_event_line(line, &oracle, &what)) << line;
          ASSERT_TRUE(same_event_bits(scanned, oracle)) << line;
          ++lines_checked;
        }
      }
    }
  }
  EXPECT_GT(lines_checked, 50000u);
}

// Random events, every double bit pattern included: the table-driven
// writer emits the JsonWriter bytes (%.17g, null for non-finite, link
// left out when negative), and the scanner decodes the line back to the
// oracle's event, bit for bit.
TEST(Scanner, WriterMatchesJsonWriterOnRandomEvents) {
  Rng rng(61);
  for (int trial = 0; trial < 20000; ++trial) {
    obs::Event e;
    e.ts_ns = static_cast<std::int64_t>(rng.next_u64()) >>
              (trial % 2 == 0 ? 11 : 0);
    e.seq = rng.next_u64() >> (trial % 3 == 0 ? 1 : 11);
    e.a = rng.next_u64() >> (rng.next_u64() % 64);
    e.b = rng.next_u64() >> (rng.next_u64() % 64);
    const std::uint64_t bits = rng.next_u64();
    std::memcpy(&e.value, &bits, sizeof e.value);
    if (trial % 4 == 0) e.value = static_cast<double>(bits % 1000) / 7.0;
    e.link = trial % 3 == 0 ? -1
             : trial % 3 == 1
                 ? static_cast<std::int32_t>(rng.next_u64() % 64)
                 : static_cast<std::int32_t>(rng.next_u64());
    // (A high node index costs the log one ring per index below it.)
    e.node = static_cast<std::uint16_t>(trial % 64 == 0 ? rng.next_u64()
                                                        : rng.next_u64() % 16);
    e.kind = static_cast<obs::EventKind>(rng.next_u64() % obs::kEventKindCount);

    obs::EventLog log(1);
    log.append(e.node, e.kind, e.ts_ns, e.link, e.a, e.b, e.value);
    std::ostringstream os;
    log.write_jsonl(os);
    obs::Event written = log.merged().front();
    ASSERT_EQ(os.str(), json_writer_line(written));

    const std::string line = os.str().substr(0, os.str().size() - 1);
    obs::Event scanned, oracle;
    std::string what;
    const bool scan_ok = obs::scan_event_line(line, &scanned, &what);
    ASSERT_EQ(scan_ok, parse_event_line(line, &oracle, &what)) << line;
    if (scan_ok) {
      ASSERT_TRUE(same_event_bits(scanned, oracle)) << line;
    }
  }
}

/// The inputs the scanner rejects and the oracle accepts. Each is a bug
/// fix: write_jsonl emits none of them, and each could smuggle a second,
/// ignored reading of a line past a verifier.
enum class NewRejection {
  kNone,
  kUnknownKey,
  kDuplicateKey,
  kNonIntegerForm,  // an integer field written as 1.0 or 1e0
  kEscape,          // a `\` escape in a key, kind, a or b
};

NewRejection rejection_class(const std::string& what) {
  if (what.find("unknown key") != std::string::npos) {
    return NewRejection::kUnknownKey;
  }
  if (what.find("duplicate key") != std::string::npos) {
    return NewRejection::kDuplicateKey;
  }
  if (what.find("fraction or exponent") != std::string::npos) {
    return NewRejection::kNonIntegerForm;
  }
  if (what.find("escape sequence") != std::string::npos) {
    return NewRejection::kEscape;
  }
  return NewRejection::kNone;
}

bool is_event_key(std::string_view key) {
  for (const char* k : {"ts_ns", "node", "seq", "kind", "link", "a", "b", "v"}) {
    if (key == k) return true;
  }
  return false;
}

/// Checks, independently of the scanner, that `line` (which the oracle
/// accepted) really is in the class the scanner named.
bool in_class(NewRejection c, const std::string& line, const std::string& what) {
  const auto doc = obs::json_parse(line);
  if (!doc.has_value()) return false;
  switch (c) {
    case NewRejection::kUnknownKey:
      for (const auto& [key, value] : doc->object) {
        if (!is_event_key(key)) return true;
      }
      return false;
    case NewRejection::kDuplicateKey:
      for (std::size_t i = 0; i < doc->object.size(); ++i) {
        for (std::size_t j = i + 1; j < doc->object.size(); ++j) {
          if (doc->object[i].first == doc->object[j].first) return true;
        }
      }
      return false;
    case NewRejection::kNonIntegerForm: {
      // The named key's raw number token has a fraction or exponent.
      const std::string quoted = "\"" + what.substr(0, what.find(':')) + "\"";
      for (std::size_t at = line.find(quoted); at != std::string::npos;
           at = line.find(quoted, at + 1)) {
        std::size_t p = at + quoted.size();
        while (p < line.size() && std::strchr(" \t\r:", line[p]) != nullptr) {
          ++p;
        }
        for (; p < line.size() && std::strchr("+-.eE0123456789", line[p]);
             ++p) {
          if (std::strchr(".eE", line[p]) != nullptr) return true;
        }
      }
      return false;
    }
    case NewRejection::kEscape:
      return line.find('\\') != std::string::npos;
    case NewRejection::kNone:
      break;
  }
  return false;
}

TEST(Reader, NewlyRejectedInputs) {
  const struct {
    const char* line;
    NewRejection why;
  } cases[] = {
      {R"({"ts_ns":0,"node":0,"seq":0,"kind":"data-send","x":1})",
       NewRejection::kUnknownKey},
      {R"({"ts_ns":0,"node":0,"seq":0,"seq":1,"kind":"data-send"})",
       NewRejection::kDuplicateKey},
      {R"({"ts_ns":1.0,"node":0,"seq":0,"kind":"data-send"})",
       NewRejection::kNonIntegerForm},
      {R"({"ts_ns":0,"node":1e0,"seq":0,"kind":"data-send"})",
       NewRejection::kNonIntegerForm},
      {R"({"ts_ns":0,"node":0,"seq":0,"kind":"data-send","link":2E1})",
       NewRejection::kNonIntegerForm},
      {R"({"ts_ns":0,"node":0,"seq":0,"kind":"data\u002dsend"})",
       NewRejection::kEscape},
      {R"({"ts_ns":0,"node":0,"seq":0,"kind":"data-send","a":"\u0031"})",
       NewRejection::kEscape},
      {R"({"\u0074s_ns":0,"node":0,"seq":0,"kind":"data-send"})",
       NewRejection::kEscape},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.line);
    obs::Event e;
    std::string what;
    ASSERT_TRUE(parse_event_line(c.line, &e, &what)) << what;
    ASSERT_FALSE(obs::scan_event_line(c.line, &e, &what));
    EXPECT_EQ(rejection_class(what), c.why) << what;
    EXPECT_TRUE(in_class(c.why, c.line, what)) << what;
  }
}

/// Seeded mutations of canonical lines.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string mutate(const std::string& line) {
    std::string m = line;
    const std::size_t rounds = 1 + rng_.next_u64() % 3 / 2;  // 1 or 2
    for (std::size_t r = 0; r < rounds; ++r) m = once(m);
    return m;
  }

 private:
  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng_.next_u64() % n);
  }

  /// Top-level "key":value members of a flat canonical object.
  static std::vector<std::string> members(const std::string& line) {
    std::vector<std::string> out;
    if (line.size() < 2 || line.front() != '{' || line.back() != '}') {
      return out;
    }
    std::size_t at = 1;
    while (at < line.size() - 1) {
      std::size_t comma = line.find(',', at);
      if (comma == std::string::npos) comma = line.size() - 1;
      out.push_back(line.substr(at, comma - at));
      at = comma + 1;
    }
    return out;
  }

  static std::string join(const std::vector<std::string>& parts) {
    std::string out = "{";
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (i > 0) out += ',';
      out += parts[i];
    }
    return out + "}";
  }

  std::string once(const std::string& line) {
    static const char* const kNumbers[] = {
        "1e999",  "-1e999", "1e-400", "-1e-400", "4.9e-324", "-0",
        "1.0",    "1e0",    "01",     "9007199254740992",
        "9007199254740991", "-9007199254740991", "18446744073709551616",
        "18446744073709551615", "0", "65535", "65536", "2147483647",
        "2147483648", "1E2", "-1", "0.5", "null", "true", "\"1\"", "1e",
        "-", ".5", "2.5e-3", "1e+2", "123456789012345678901234567890",
        "0.000000000000000000001e-310", "17976931348623159e292",
    };
    static const char* const kDigitStrings[] = {
        "01", "18446744073709551616", "18446744073709551615", "-1", "1e0",
        "", " 1", "0x10", "9007199254740992", "007",
    };
    static const char* const kWhitespace[] = {" ", "\t", "\r", "  ", "\r\n"};
    std::vector<std::string> parts = members(line);
    switch (pick(9)) {
      case 0: {  // byte flips
        std::string m = line;
        if (m.empty()) return m;
        static const char kPalette[] = "{}[],:\"\\ 0123456789.eE-+nulx\t\r";
        for (std::size_t f = 1 + pick(3); f > 0; --f) {
          m[pick(m.size())] = pick(2) == 0
                                  ? kPalette[pick(sizeof kPalette - 1)]
                                  : static_cast<char>(rng_.next_u64());
        }
        return m;
      }
      case 1:  // truncation
        return line.substr(0, pick(line.size() + 1));
      case 2:  // key reorder
        for (std::size_t i = parts.size(); i > 1; --i) {
          std::swap(parts[i - 1], parts[pick(i)]);
        }
        return parts.empty() ? line : join(parts);
      case 3: {  // inserted whitespace, mostly around structural tokens
        std::string m = line;
        for (std::size_t n = 1 + pick(4); n > 0; --n) {
          std::size_t at = pick(m.size() + 1);
          if (pick(4) != 0) {
            const std::size_t s = m.find_first_of("{}:,", at);
            if (s != std::string::npos) at = s + pick(2);
          }
          m.insert(at, kWhitespace[pick(std::size(kWhitespace))]);
        }
        return m;
      }
      case 4:  // CRLF
        return line + "\r";
      case 5: {  // duplicate key, same or different value
        if (parts.empty()) return line;
        std::string dup = parts[pick(parts.size())];
        if (pick(2) == 0) {
          const std::size_t colon = dup.find(':');
          if (colon != std::string::npos) {
            dup = dup.substr(0, colon + 1) + kNumbers[pick(std::size(kNumbers))];
          }
        }
        parts.insert(parts.begin() + static_cast<std::ptrdiff_t>(
                                         pick(parts.size() + 1)),
                     dup);
        return join(parts);
      }
      case 6: {  // unknown key
        static const char* const kUnknown[] = {
            R"("x":1)", R"("extra":"1")", R"("vv":null)", R"("":0)",
            R"("Ts_ns":0)", R"("kind ":"data-send")", R"("nested":{"a":[1]})"};
        parts.insert(parts.begin() + static_cast<std::ptrdiff_t>(
                                         pick(parts.size() + 1)),
                     kUnknown[pick(std::size(kUnknown))]);
        return join(parts);
      }
      case 7: {  // number token swap into a field's value
        if (parts.empty()) return line;
        std::string& part = parts[pick(parts.size())];
        const std::size_t colon = part.find(':');
        if (colon == std::string::npos) return line;
        const bool quoted = colon + 1 < part.size() && part[colon + 1] == '"';
        if (quoted && pick(2) == 0) {
          part = part.substr(0, colon + 1) + "\"" +
                 kDigitStrings[pick(std::size(kDigitStrings))] + "\"";
        } else {
          part = part.substr(0, colon + 1) + kNumbers[pick(std::size(kNumbers))];
        }
        return join(parts);
      }
      default: {  // a \u escape of a character inside some string
        std::vector<std::size_t> spots;
        bool in_string = false;
        for (std::size_t i = 0; i < line.size(); ++i) {
          if (line[i] == '"') {
            in_string = !in_string;
          } else if (in_string) {
            spots.push_back(i);
          }
        }
        if (spots.empty()) return line;
        const std::size_t at = spots[pick(spots.size())];
        char esc[8];
        std::snprintf(esc, sizeof esc, "\\u%04x",
                      static_cast<unsigned char>(line[at]));
        return line.substr(0, at) + esc + line.substr(at + 1);
      }
    }
  }

  Rng rng_;
};

// Seeded mutants of canonical lines: the scanner and the oracle both
// accept (with bit-identical events), both reject, or the mutant is in a
// named new-rejection class, which the test confirms independently.
TEST(Scanner, MutationFuzzAgreesWithDomOracle) {
  runner::ExperimentConfig cfg =
      runner::paper_config(protocols::ProtocolKind::kPaai2, 200, 59);
  cfg.params.blame = protocols::BlameSpec::parse("hybrid:3,64");
  const BatchRun batch = run_with_log(cfg);
  std::vector<std::string> canonical;
  for (const std::string& line : split_lines(to_jsonl(batch.events))) {
    canonical.push_back(line);
  }
  // Boundary values and every field present.
  canonical.push_back(
      R"({"ts_ns":-9007199254740991,"node":65535,"seq":9007199254740991,)"
      R"("kind":"score-blame","link":2147483647,"a":"18446744073709551615",)"
      R"("b":"0","v":-2.2250738585072014e-308})");
  canonical.push_back(
      R"({"ts_ns":0,"node":0,"seq":0,"kind":"conviction","link":0,"a":"0",)"
      R"("b":"1","v":null})");

  Mutator mutator(67);
  std::size_t accepted = 0, rejected = 0;
  std::size_t by_class[5] = {};
  constexpr std::size_t kMutants = 24000;
  for (std::size_t i = 0; i < kMutants; ++i) {
    const std::string m =
        mutator.mutate(canonical[i % canonical.size()]);
    obs::Event scanned, oracle;
    std::string scan_what, oracle_what;
    const bool scan_ok = obs::scan_event_line(m, &scanned, &scan_what);
    const bool oracle_ok = parse_event_line(m, &oracle, &oracle_what);
    if (scan_ok) {
      ASSERT_TRUE(oracle_ok) << m;
      ASSERT_TRUE(same_event_bits(scanned, oracle)) << m;
      ++accepted;
    } else if (!oracle_ok) {
      ++rejected;
    } else {
      const NewRejection c = rejection_class(scan_what);
      ASSERT_NE(c, NewRejection::kNone) << m << "\n" << scan_what;
      ASSERT_TRUE(in_class(c, m, scan_what)) << m << "\n" << scan_what;
      ++by_class[static_cast<std::size_t>(c)];
    }
    // The framed path agrees with the bare scanner.
    if (i % 16 == 0 && m.find('\n') == std::string::npos) {
      std::istringstream is(m + "\n");
      obs::EventReader reader(is);
      obs::Event framed;
      const bool blank = m.empty();
      const auto status = reader.next(&framed);
      if (blank) {
        EXPECT_EQ(status, obs::EventReader::Status::kEof) << m;
      } else {
        ASSERT_EQ(status == obs::EventReader::Status::kEvent, scan_ok) << m;
        if (scan_ok) {
          ASSERT_TRUE(same_event_bits(framed, scanned)) << m;
        }
      }
    }
  }
  // Every outcome is exercised, every new-rejection class included.
  EXPECT_GT(accepted, kMutants / 10);
  EXPECT_GT(rejected, kMutants / 10);
  EXPECT_GT(by_class[static_cast<std::size_t>(NewRejection::kUnknownKey)], 0u);
  EXPECT_GT(by_class[static_cast<std::size_t>(NewRejection::kDuplicateKey)],
            0u);
  EXPECT_GT(by_class[static_cast<std::size_t>(NewRejection::kNonIntegerForm)],
            0u);
  EXPECT_GT(by_class[static_cast<std::size_t>(NewRejection::kEscape)], 0u);
}

// ------------------------------------------------------------- the service

TEST(Service, FailFastStopsAtFirstBadLine) {
  const std::string good =
      to_jsonl({make_event(obs::EventKind::kDataSend, -1, 1, 0)});
  std::istringstream is(good + "garbage\n" + good);
  ScoreEngine engine(
      EngineConfig{protocols::ProtocolKind::kPaai1, 6, 0.018});
  std::ostringstream log;
  ServeConfig cfg;
  cfg.fail_fast = true;
  const ServeReport report = serve_stream(engine, is, log, cfg);
  EXPECT_TRUE(report.failed);
  EXPECT_EQ(report.events, 1u);
  EXPECT_EQ(report.parse_errors, 1u);
  EXPECT_NE(report.error.find("line 2:"), std::string::npos);
}

TEST(Service, SkipMalformedContinues) {
  const std::string good =
      to_jsonl({make_event(obs::EventKind::kDataSend, -1, 1, 0)});
  std::istringstream is(good + "garbage\n" + good);
  ScoreEngine engine(
      EngineConfig{protocols::ProtocolKind::kPaai1, 6, 0.018});
  std::ostringstream log;
  ServeConfig cfg;
  cfg.fail_fast = false;
  const ServeReport report = serve_stream(engine, is, log, cfg);
  EXPECT_FALSE(report.failed);
  EXPECT_EQ(report.events, 2u);
  EXPECT_EQ(report.parse_errors, 1u);
  EXPECT_EQ(engine.packets_sent(), 2u);
}

TEST(Service, StopFlagDrainsImmediately) {
  std::istringstream is(
      to_jsonl({make_event(obs::EventKind::kDataSend, -1, 1, 0)}));
  ScoreEngine engine(
      EngineConfig{protocols::ProtocolKind::kPaai1, 6, 0.018});
  std::ostringstream log;
  const volatile std::sig_atomic_t stop = 1;
  const ServeReport report =
      serve_stream(engine, is, log, ServeConfig{}, &stop);
  EXPECT_TRUE(report.interrupted);
  EXPECT_EQ(report.events, 0u);
}

TEST(Service, SnapshotsAreReloadable) {
  const BatchRun batch = run_with_log(
      runner::paper_config(protocols::ProtocolKind::kPaai1, 1000, 31));
  std::ostringstream jsonl;
  {
    obs::EventLog log(batch.events.size() + 1);
    for (const obs::Event& e : batch.events) {
      log.append(e.node, e.kind, e.ts_ns, e.link, e.a, e.b, e.value);
    }
    log.write_jsonl(jsonl);
  }
  const std::string state_path =
      testing::TempDir() + "/stream_test_state.json";
  std::istringstream is(jsonl.str());
  ScoreEngine engine;
  std::ostringstream log;
  ServeConfig cfg;
  cfg.state_out = state_path;
  cfg.snapshot_every = 100;
  const ServeReport report = serve_stream(engine, is, log, cfg);
  EXPECT_FALSE(report.failed) << report.error;
  EXPECT_GE(report.snapshots, 2u);  // periodic + exit

  std::ifstream in(state_path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  ScoreEngine restored;
  std::string error;
  ASSERT_TRUE(load_state(buf.str(), &restored, &error)) << error;
  expect_equivalent(batch.result, restored, "from exit snapshot");
}

// --------------------------------------------------------- the producer

TEST(Producer, StreamsADropFreeLog) {
  std::ostringstream os;
  const runner::StreamProduceResult produced = runner::run_experiment_to_stream(
      runner::paper_config(protocols::ProtocolKind::kPaai1, 1000, 37), os);
  EXPECT_EQ(produced.events_dropped, 0u);
  EXPECT_GT(produced.events_recorded, 0u);

  std::istringstream is(os.str());
  ScoreEngine engine;
  std::ostringstream log;
  const ServeReport report = serve_stream(engine, is, log, ServeConfig{});
  EXPECT_FALSE(report.failed) << report.error;
  expect_equivalent(produced.result, engine, "producer stream");
}

}  // namespace
}  // namespace paai::stream
