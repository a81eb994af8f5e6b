// Fleet tests (Corollary 2 infrastructure): the mesh packet engine on
// linear@P — one link-disjoint chain per path — checked for its baseline
// measurement, per-path outcome classification, and damage aggregation.
// The last test replays the pre-mesh serial fleet loop inline and demands
// bit-identical numbers from run_mesh at jobs 1 and 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "mesh/runner.h"

namespace paai::mesh {
namespace {

using runner::ExperimentConfig;
using runner::LinkFault;

/// Planted malicious links per path, as path-local hop positions.
using Placement = std::vector<std::vector<LinkFault>>;

ExperimentConfig base_template() {
  ExperimentConfig base =
      runner::paper_config(protocols::ProtocolKind::kPaai1, 40000, 0);
  base.link_faults.clear();
  base.params.probe_probability = 1.0 / 9.0;
  base.params.send_rate_pps = 1000.0;
  return base;
}

/// The fleet as a mesh: path i rides chain i of linear@P, so its hop j is
/// mesh link paths.links(i)[j].
MeshConfig fleet(const ExperimentConfig& base, const Placement& placement) {
  MeshConfig cfg;
  cfg.engine = MeshEngine::kPacket;
  cfg.packet_base = base;
  cfg.topo = Topology::linear(placement.size(), base.path.length);
  cfg.paths = cfg.topo.enumerate_paths(placement.size(), /*seed=*/0);
  for (std::size_t i = 0; i < placement.size(); ++i) {
    for (const LinkFault& fault : placement[i]) {
      cfg.link_faults.push_back(
          {cfg.paths.links(i)[fault.link], fault.extra_loss});
    }
  }
  return cfg;
}

TEST(Fleet, CleanPathsReportNoDamageOrConvictions) {
  const MeshResult r = run_mesh(fleet(base_template(), {{}, {}}));
  ASSERT_EQ(r.path_outcomes.size(), 2u);
  EXPECT_GT(r.baseline_delivery, 0.9);
  EXPECT_LT(r.total_damage, 0.01);
  for (const auto& p : r.path_outcomes) {
    EXPECT_TRUE(p.convicted.empty());
    EXPECT_TRUE(p.malicious.empty());
    EXPECT_TRUE(p.all_malicious_convicted);  // vacuously
    EXPECT_FALSE(p.any_honest_convicted);
  }
}

TEST(Fleet, ClassifiesConvictionsAgainstGroundTruth) {
  const MeshResult r =
      run_mesh(fleet(base_template(), {{LinkFault{4, 0.05}}, {}}));
  ASSERT_EQ(r.path_outcomes.size(), 2u);
  EXPECT_TRUE(r.path_outcomes[0].all_malicious_convicted);
  EXPECT_FALSE(r.path_outcomes[0].any_honest_convicted);
  EXPECT_EQ(r.path_outcomes[0].malicious, std::vector<std::size_t>{4});
  EXPECT_TRUE(r.path_outcomes[1].convicted.empty());
  // Damage ~ one path losing ~5% of its traffic.
  EXPECT_NEAR(r.total_damage, 0.05, 0.02);
}

TEST(Fleet, DamageAddsAcrossPaths) {
  const double d1 =
      run_mesh(fleet(base_template(), {{LinkFault{3, 0.05}}})).total_damage;
  const double d3 = run_mesh(fleet(base_template(), {{LinkFault{3, 0.05}},
                                                     {LinkFault{3, 0.05}},
                                                     {LinkFault{3, 0.05}}}))
                        .total_damage;
  EXPECT_NEAR(d3, 3.0 * d1, 0.03);
}

struct LegacyFleet {
  std::vector<MeshPathOutcome> paths;
  double total_damage = 0.0;
  double baseline_delivery = 0.0;
};

/// The pre-mesh fleet runner, verbatim but serial: clean baseline seeded
/// seed0, path i seeded seed0 + 1 + i with its planted links replacing
/// the template's, damage folded in path order.
LegacyFleet legacy_serial_fleet(const ExperimentConfig& base,
                                const Placement& placement,
                                std::uint64_t seed0) {
  LegacyFleet result;
  {
    ExperimentConfig clean = base;
    clean.link_faults.clear();
    clean.adversaries.clear();
    clean.path.seed = seed0;
    result.baseline_delivery =
        runner::run_experiment(clean).ground_truth_delivery;
  }
  for (std::size_t i = 0; i < placement.size(); ++i) {
    ExperimentConfig cfg = base;
    cfg.link_faults = placement[i];
    cfg.path.seed = seed0 + 1 + i;
    const runner::ExperimentResult run = runner::run_experiment(cfg);

    MeshPathOutcome outcome;
    outcome.ground_truth_delivery = run.ground_truth_delivery;
    outcome.observed_e2e_rate = run.observed_e2e_rate;
    outcome.convicted = run.final_convicted;
    for (const auto& fault : placement[i]) {
      outcome.malicious.push_back(fault.link);
    }
    std::sort(outcome.malicious.begin(), outcome.malicious.end());
    outcome.all_malicious_convicted = true;
    for (const std::size_t link : outcome.malicious) {
      if (std::find(outcome.convicted.begin(), outcome.convicted.end(),
                    link) == outcome.convicted.end()) {
        outcome.all_malicious_convicted = false;
      }
    }
    for (const std::size_t link : outcome.convicted) {
      if (std::find(outcome.malicious.begin(), outcome.malicious.end(),
                    link) == outcome.malicious.end()) {
        outcome.any_honest_convicted = true;
      }
    }
    result.total_damage += std::max(
        0.0, result.baseline_delivery - outcome.ground_truth_delivery);
    result.paths.push_back(std::move(outcome));
  }
  return result;
}

TEST(Fleet, MeshBackedFleetReproducesLegacyNumbersBitForBit) {
  ExperimentConfig base = base_template();
  base.params.total_packets = 15000;
  const Placement placement = {{LinkFault{4, 0.05}},
                               {},
                               {LinkFault{2, 0.04}, LinkFault{4, 0.05}}};
  const std::uint64_t seed0 = 9000;

  const LegacyFleet want = legacy_serial_fleet(base, placement, seed0);
  MeshConfig cfg = fleet(base, placement);
  cfg.seed0 = seed0;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    cfg.jobs = jobs;
    const MeshResult got = run_mesh(cfg);
    EXPECT_EQ(got.baseline_delivery, want.baseline_delivery);  // bit-exact
    EXPECT_EQ(got.total_damage, want.total_damage);
    ASSERT_EQ(got.path_outcomes.size(), want.paths.size());
    for (std::size_t i = 0; i < want.paths.size(); ++i) {
      const MeshPathOutcome& g = got.path_outcomes[i];
      const MeshPathOutcome& w = want.paths[i];
      EXPECT_EQ(g.ground_truth_delivery, w.ground_truth_delivery);
      EXPECT_EQ(g.observed_e2e_rate, w.observed_e2e_rate);
      EXPECT_EQ(g.convicted, w.convicted);
      EXPECT_EQ(g.malicious, w.malicious);
      EXPECT_EQ(g.all_malicious_convicted, w.all_malicious_convicted);
      EXPECT_EQ(g.any_honest_convicted, w.any_honest_convicted);
    }
  }
}

}  // namespace
}  // namespace paai::mesh
