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
#include <csignal>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/spec.h"
#include "faults/plan.h"
#include "obs/events.h"
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
