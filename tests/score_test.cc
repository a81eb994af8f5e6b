// Scoring/identification unit tests: ScoreTable per-traversal inversion,
// conviction thresholds, the PAAI-2 prefix-difference estimator on
// synthetic drop processes, the ScoreLedger factory's calibration and
// event logging, and the PendingStore expiry machinery.
#include <gtest/gtest.h>

#include <cmath>

#include "obs/events.h"
#include "protocols/ledger.h"
#include "protocols/pending.h"
#include "protocols/score.h"
#include "sim/storage.h"
#include "util/rng.h"

namespace paai::protocols {
namespace {

TEST(ScoreTable, ThetaInvertsTraversalCompounding) {
  ScoreTable table(6, 2.0);
  // Feed a synthetic blame process on link 3 at per-traversal rate 0.03
  // over 2 traversals: per-observation blame prob = 1-(1-0.03)^2.
  Rng rng(1);
  const double per_obs = 1.0 - std::pow(1.0 - 0.03, 2.0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(per_obs)) {
      table.blame(3);
    } else {
      table.add_clean();
    }
  }
  EXPECT_EQ(table.observations(), static_cast<std::uint64_t>(n));
  EXPECT_NEAR(table.theta(3), 0.03, 0.002);
  EXPECT_DOUBLE_EQ(table.theta(0), 0.0);
}

TEST(ScoreTable, ConvictionThreshold) {
  ScoreTable table(3, 1.0);
  for (int i = 0; i < 70; ++i) table.add_clean();
  for (int i = 0; i < 30; ++i) table.blame(1);
  // theta_1 = 0.3.
  EXPECT_EQ(table.convicted(0.2), std::vector<std::size_t>{1});
  EXPECT_TRUE(table.convicted(0.35).empty());
  table.reset();
  EXPECT_EQ(table.observations(), 0u);
  EXPECT_TRUE(table.convicted(0.0).empty());
}

TEST(ScoreTable, RejectsBadConstructionAndIndices) {
  EXPECT_THROW(ScoreTable(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ScoreTable(3, 0.0), std::invalid_argument);
  ScoreTable t(3, 1.0);
  t.add_clean();
  t.blame(1);
  const std::vector<double> thetas = t.thetas();
  EXPECT_THROW(t.blame(3), std::out_of_range);
  // The range check runs before any counter moves.
  EXPECT_EQ(t.observations(), 2u);
  EXPECT_EQ(t.thetas(), thetas);
  EXPECT_EQ(t.window_fill(), 2u);
}

// The ledger's calibration: the one place the table literals live.
TEST(ScoreLedger, FactoryCalibratesEachFamily) {
  const BlameSpec margin;
  for (const ProtocolKind kind :
       {ProtocolKind::kFullAck, ProtocolKind::kCombination1,
        ProtocolKind::kSigAck, ProtocolKind::kPaai1}) {
    ScoreLedger ledger = make_ledger(kind, 6, margin);
    ASSERT_NE(ledger.table<ScoreTable>(), nullptr);
    // One blame in four units: exposure 1 (+2 per probe) or a fixed 2.6.
    ledger.clean(0);
    ledger.clean(0);
    ledger.clean(0);
    ledger.blame(2, 0);
    const double t = kind == ProtocolKind::kPaai1 ? 2.6 : 1.0;
    EXPECT_DOUBLE_EQ(ledger.thetas()[2], 1.0 - std::pow(0.75, 1.0 / t))
        << protocol_name(kind);
  }
  for (const ProtocolKind kind :
       {ProtocolKind::kPaai2, ProtocolKind::kCombination2}) {
    EXPECT_NE(make_ledger(kind, 6, margin).table<Paai2ScoreTable>(), nullptr);
  }
  const ScoreLedger fl = make_ledger(ProtocolKind::kStatisticalFl, 6, margin);
  EXPECT_NE(fl.table<FlScoreTable>(), nullptr);
  EXPECT_THROW(make_ledger(ProtocolKind::kPaai1, 0, margin),
               std::invalid_argument);
}

// Probed rounds raise full-ack's exposure; PAAI-1's timeout scores nothing.
TEST(ScoreLedger, AckTimeoutScoresPerProtocol) {
  ScoreLedger full = make_ledger(ProtocolKind::kFullAck, 6, BlameSpec{});
  EXPECT_TRUE(full.ack_timeout(1));
  EXPECT_EQ(full.table<ScoreTable>()->probes(), 1u);
  ScoreLedger paai1 = make_ledger(ProtocolKind::kPaai1, 6, BlameSpec{});
  EXPECT_FALSE(paai1.ack_timeout(1));
  EXPECT_EQ(paai1.table<ScoreTable>()->probes(), 0u);
  ScoreLedger statfl =
      make_ledger(ProtocolKind::kStatisticalFl, 6, BlameSpec{});
  EXPECT_TRUE(statfl.ack_timeout(3, 4));
  EXPECT_EQ(statfl.table<FlScoreTable>()->intervals_lost(), 1u);
}

// With no log attached a mutation appends nothing; with one attached it
// appends exactly the event that describes it.
TEST(ScoreLedger, LogsTheEventItApplies) {
  ScoreLedger ledger = make_ledger(ProtocolKind::kFullAck, 6, BlameSpec{});
  ledger.send(11, 0);
  obs::EventLog log(64);
  ledger.log_to(&log, /*clock=*/nullptr);
  ledger.send(12, 1);
  ledger.blame(3, 12);
  const std::vector<obs::Event> events = log.merged();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, obs::EventKind::kDataSend);
  EXPECT_EQ(events[0].a, 12u);
  EXPECT_EQ(events[0].b, 1u);
  EXPECT_EQ(events[1].kind, obs::EventKind::kScoreBlame);
  EXPECT_EQ(events[1].link, 3);
  EXPECT_EQ(events[1].b, 1u);  // observations after the blame
  EXPECT_EQ(events[1].value, ledger.thetas()[3]);
  EXPECT_EQ(ledger.packets_sent(), 2u);
}

// Synthetic PAAI-2 process: d = 6 links with given per-traversal rates;
// per "cycle" the data crosses all links; a probe fires iff the data (or
// its dest-ack) dropped; on probe a uniform node e is selected and the
// prefix [0, e-1] fails iff any of ~3 traversals dropped there.
TEST(Paai2ScoreTable, EstimatorRecoversPerLinkRates) {
  const std::size_t d = 6;
  std::vector<double> theta = {0.01, 0.01, 0.01, 0.01, 0.03, 0.01};
  Paai2ScoreTable table(d);
  Rng rng(7);

  const int cycles = 600000;
  for (int c = 0; c < cycles; ++c) {
    table.add_data_packet();
    // Data leg: find first dropping link (or none).
    std::size_t data_drop = d;  // d = none
    for (std::size_t j = 0; j < d; ++j) {
      if (rng.bernoulli(theta[j])) {
        data_drop = j;
        break;
      }
    }
    // Dest-ack leg (only if data survived).
    bool ack_dropped = false;
    if (data_drop == d) {
      for (std::size_t j = d; j-- > 0;) {
        if (rng.bernoulli(theta[j])) {
          ack_dropped = true;
          break;
        }
      }
    }
    if (data_drop == d && !ack_dropped) continue;  // no probe

    const std::size_t e = 1 + rng.next_below(d);
    // Prefix failure: data dropped in prefix, or probe/report dropped
    // in prefix.
    bool failed = data_drop < e;
    for (std::size_t leg = 0; leg < 2 && !failed; ++leg) {
      for (std::size_t j = 0; j < e && !failed; ++j) {
        if (rng.bernoulli(theta[j])) failed = true;
      }
    }
    table.add_probe(e, failed);
  }

  const std::vector<double> est = table.thetas();
  for (std::size_t j = 0; j < d; ++j) {
    EXPECT_NEAR(est[j], theta[j], 0.006) << "link " << j;
  }
  EXPECT_EQ(table.convicted(0.02), std::vector<std::size_t>{4});
}

TEST(Paai2ScoreTable, InterfaceBasics) {
  Paai2ScoreTable table(6);
  table.add_data_packet();
  table.add_data_packet();
  table.add_probe(3, true);
  EXPECT_EQ(table.probes(), 1u);
  EXPECT_EQ(table.selections(3), 1u);
  EXPECT_DOUBLE_EQ(table.observed_e2e_rate(), 0.5);
  // The paper's interval scoring: links 0..2 gained a point.
  EXPECT_EQ(table.interval_score(0), 1u);
  EXPECT_EQ(table.interval_score(2), 1u);
  EXPECT_EQ(table.interval_score(3), 0u);
  EXPECT_THROW(table.add_probe(0, true), std::out_of_range);
  EXPECT_THROW(table.add_probe(7, true), std::out_of_range);
  table.reset();
  EXPECT_EQ(table.probes(), 0u);
}

TEST(Paai2ScoreTable, IntervalScoresShowDifferenceAcrossMaliciousLink) {
  // The paper's identification intuition: E[s_j - s_{j+1}] is the failure
  // mass at selection e = j+1; a malicious l_4 makes s_4 - s_5 much
  // bigger than other adjacent differences.
  const std::size_t d = 6;
  std::vector<double> theta = {0.01, 0.01, 0.01, 0.01, 0.05, 0.01};
  Paai2ScoreTable table(d);
  Rng rng(11);
  for (int c = 0; c < 300000; ++c) {
    table.add_data_packet();
    std::size_t drop = d;
    for (std::size_t j = 0; j < d; ++j) {
      if (rng.bernoulli(theta[j])) {
        drop = j;
        break;
      }
    }
    if (drop == d) continue;
    const std::size_t e = 1 + rng.next_below(d);
    table.add_probe(e, drop < e);
  }
  std::vector<double> diffs;
  for (std::size_t j = 0; j + 1 < d; ++j) {
    diffs.push_back(static_cast<double>(table.interval_score(j)) -
                    static_cast<double>(table.interval_score(j + 1)));
  }
  // diffs[j] corresponds to failures with e = j+1 i.e. prefix up to l_j.
  // The jump in prefix failure mass happens between e=4 (prefix l_0..l_3,
  // clean) and e=5 (prefix includes l_4).
  std::size_t argmax = 0;
  for (std::size_t j = 1; j < diffs.size(); ++j) {
    if (diffs[j] > diffs[argmax]) argmax = j;
  }
  EXPECT_EQ(argmax, 4u);
}

TEST(PendingStore, PutFindEraseWithMeter) {
  sim::StorageMeter meter;
  PendingStore<int> store(&meter);
  net::PacketId a{}, b{};
  b[0] = 1;
  store.put(a, 10, 100);
  store.put(b, 20, 200);
  EXPECT_EQ(meter.current(), 2u);
  ASSERT_NE(store.find(a), nullptr);
  EXPECT_EQ(*store.find(a), 10);
  store.erase(a);
  EXPECT_EQ(store.find(a), nullptr);
  EXPECT_EQ(meter.current(), 1u);
  store.erase(a);  // idempotent
  EXPECT_EQ(meter.current(), 1u);
}

TEST(PendingStore, PurgeRespectsExpiryAndExtension) {
  sim::StorageMeter meter;
  PendingStore<int> store(&meter);
  net::PacketId a{}, b{};
  b[0] = 1;
  store.put(a, 1, 100);
  store.put(b, 2, 100);
  store.extend(b, 300);
  store.purge(150);
  EXPECT_EQ(store.find(a), nullptr);
  ASSERT_NE(store.find(b), nullptr);
  EXPECT_EQ(meter.current(), 1u);
  store.purge(350);
  EXPECT_EQ(store.find(b), nullptr);
  EXPECT_EQ(meter.current(), 0u);
}

TEST(PendingStore, ExtendNeverShrinks) {
  PendingStore<int> store;
  net::PacketId a{};
  store.put(a, 1, 500);
  store.extend(a, 100);  // ignored
  store.purge(200);
  EXPECT_NE(store.find(a), nullptr);
}

TEST(PendingStore, ReinsertAfterEraseWorks) {
  PendingStore<int> store;
  net::PacketId a{};
  store.put(a, 1, 100);
  store.erase(a);
  store.put(a, 2, 300);
  store.purge(150);  // stale FIFO entry for the erased generation
  ASSERT_NE(store.find(a), nullptr);
  EXPECT_EQ(*store.find(a), 2);
}

}  // namespace
}  // namespace paai::protocols
