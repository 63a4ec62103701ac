// tca::chaos unit + campaign tests.
//
// Covers the campaign grammar (round-trip, rejection), the seeded plan
// generator (parse/to_string round-trip property, topology validation),
// same-seed determinism of full campaigns, the ddmin shrinker, small
// invariant sweeps across every workload, and replay of the committed
// regression corpus in tests/chaos/. The long seed-rotating sweeps live
// under Soak.* (ctest label `soak`, excluded from tier-1 runs).
#include "chaos/chaos.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fabric/fault_plan.h"
#include "fabric/topology.h"

namespace tca::chaos {
namespace {

using fabric::FaultPlan;
using fabric::TopologySpec;

// --- Grammar ----------------------------------------------------------------

TEST(ChaosSpec, TopologyTokenRoundTrip) {
  for (const char* token :
       {"ring:8", "ring:4", "dual-ring:8", "torus:4x4", "torus:2x2x2"}) {
    auto topo = parse_topology(token);
    ASSERT_TRUE(topo.is_ok()) << topo.status().to_string();
    EXPECT_EQ(topology_to_string(topo.value()), token);
  }
}

TEST(ChaosSpec, TopologyTokenRejectsJunk) {
  EXPECT_FALSE(parse_topology("ring").is_ok());  // count is mandatory here
  EXPECT_FALSE(parse_topology("ring:").is_ok());
  EXPECT_FALSE(parse_topology("ring:4x4").is_ok());
  EXPECT_FALSE(parse_topology("mesh:4").is_ok());
}

TEST(ChaosSpec, CampaignRoundTrip) {
  CampaignSpec spec;
  spec.seed = 987654321;
  spec.topology = TopologySpec::torus({4, 4});
  spec.workload = workload::Kind::kHalo;
  spec.plan.cut(3, units::us(5)).flap(17, units::us(10), units::us(40));

  auto parsed = CampaignSpec::parse(spec.to_string());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().seed, spec.seed);
  EXPECT_EQ(parsed.value().topology, spec.topology);
  EXPECT_EQ(parsed.value().workload, spec.workload);
  EXPECT_EQ(parsed.value().plan.to_string(), spec.plan.to_string());
  EXPECT_EQ(parsed.value().to_string(), spec.to_string());
}

TEST(ChaosSpec, CampaignParseRejectsUnknownAndDuplicateKeys) {
  EXPECT_FALSE(CampaignSpec::parse("seed=1\nbogus=2\n").is_ok());
  EXPECT_FALSE(CampaignSpec::parse("seed=1\nseed=2\n").is_ok());
  EXPECT_FALSE(CampaignSpec::parse("seed=abc\n").is_ok());
}

TEST(ChaosSpec, CampaignParseSkipsCommentsAndBlanks) {
  auto parsed = CampaignSpec::parse(
      "# a reproducer\n\n  seed=7\ntopology=ring:4\n\nworkload=pingpong\n");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().seed, 7u);
  EXPECT_EQ(parsed.value().workload, workload::Kind::kPingPong);
  EXPECT_TRUE(parsed.value().plan.empty());
}

// --- Generator property ------------------------------------------------------

TEST(ChaosGenerator, PlansRoundTripAndValidate) {
  const TopologySpec topos[] = {TopologySpec::ring(8),
                                TopologySpec::dual_ring(8),
                                TopologySpec::torus({4, 4}),
                                TopologySpec::torus({2, 2, 2})};
  for (const TopologySpec& topo : topos) {
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      const FaultPlan plan = generate_fault_plan(seed, topo);
      ASSERT_FALSE(plan.empty());
      // Every generated plan passes validation against its own topology...
      const Status st = plan.validate(topo);
      EXPECT_TRUE(st.is_ok()) << st.to_string();
      // ...and round-trips through the parse grammar exactly.
      auto reparsed = FaultPlan::parse(plan.to_string());
      ASSERT_TRUE(reparsed.is_ok()) << reparsed.status().to_string();
      EXPECT_EQ(reparsed.value().to_string(), plan.to_string())
          << "seed " << seed;
    }
  }
}

TEST(ChaosGenerator, SameSeedSamePlan) {
  const TopologySpec topo = TopologySpec::torus({4, 4});
  EXPECT_EQ(generate_fault_plan(11, topo).to_string(),
            generate_fault_plan(11, topo).to_string());
  EXPECT_NE(generate_fault_plan(11, topo).to_string(),
            generate_fault_plan(12, topo).to_string());
}

// --- Campaign determinism + invariants ---------------------------------------

TEST(ChaosCampaign, SameSeedReplayIsByteIdentical) {
  CampaignSpec spec;
  spec.seed = 5;
  spec.topology = TopologySpec::torus({4, 4});
  spec.workload = workload::Kind::kMixed;

  const CampaignResult a = run_campaign(spec);
  const CampaignResult b = run_campaign(spec);
  EXPECT_TRUE(a.passed()) << (a.violations.empty() ? "" : a.violations[0]);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.metrics_hash, b.metrics_hash);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.ops_ok, b.ops_ok);
  EXPECT_EQ(a.failovers, b.failovers);
}

TEST(ChaosCampaign, EveryWorkloadPassesOnSmallFabrics) {
  for (const workload::Kind w : workload::kAllKinds) {
    for (std::uint64_t seed : {1, 2, 3}) {
      CampaignSpec spec;
      spec.seed = seed;
      spec.topology = TopologySpec::ring(4);
      spec.workload = w;
      const CampaignResult r = run_campaign(spec);
      EXPECT_TRUE(r.passed())
          << workload::to_string(w) << " seed " << seed << ": "
          << (r.violations.empty() ? "" : r.violations[0]);
      EXPECT_GT(r.ops_ok + r.ops_failed, 0u);
    }
  }
}

TEST(ChaosCampaign, InvalidPlanIsAViolationNotACrash) {
  CampaignSpec spec;
  spec.topology = TopologySpec::ring(4);
  spec.plan.cut(999, units::us(1));  // a 4-node ring has 4 cables
  const CampaignResult r = run_campaign(spec);
  ASSERT_FALSE(r.passed());
  EXPECT_NE(r.violations[0].find("cable"), std::string::npos)
      << r.violations[0];
}

// --- Shrinker ----------------------------------------------------------------

TEST(ChaosShrink, ReducesToTheSingleFailingEvent) {
  // Four valid events plus one out-of-range cable: the campaign fails on
  // plan validation, deterministically, and only the bad event matters.
  CampaignSpec spec;
  spec.topology = TopologySpec::ring(4);
  spec.workload = workload::Kind::kPingPong;
  spec.plan.flap(0, units::us(5), units::us(20))
      .ber_burst(1, units::us(1), units::us(30), 1e-6)
      .cut(999, units::us(2))
      .flap(2, units::us(40), units::us(10))
      .stuck_doorbell(1, 0, units::us(3), units::us(15));

  const ShrinkOutcome out = shrink_campaign(spec);
  EXPECT_TRUE(out.reproduced);
  EXPECT_EQ(out.original_events, 5u);
  ASSERT_EQ(out.minimized_events, 1u);
  EXPECT_EQ(out.minimized.plan.events[0].cable, 999u);
  // The minimized spec still fails, and its rendering reproduces it.
  auto reparsed = CampaignSpec::parse(out.minimized.to_string());
  ASSERT_TRUE(reparsed.is_ok());
  EXPECT_FALSE(run_campaign(reparsed.value()).passed());
}

TEST(ChaosShrink, PassingCampaignReportsNotReproduced) {
  CampaignSpec spec;
  spec.topology = TopologySpec::ring(4);
  spec.plan.flap(0, units::us(5), units::us(20));
  const ShrinkOutcome out = shrink_campaign(spec);
  EXPECT_FALSE(out.reproduced);
  EXPECT_EQ(out.runs, 1u);
}

// --- Regression corpus -------------------------------------------------------

TEST(ChaosCorpus, CommittedCampaignsReplayGreen) {
  const std::filesystem::path dir = TCA_CHAOS_CORPUS;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".campaign") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty()) << "no .campaign files under " << dir;
  for (const auto& path : files) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto spec = CampaignSpec::parse(buffer.str());
    ASSERT_TRUE(spec.is_ok())
        << path << ": " << spec.status().to_string();
    const CampaignResult r = run_campaign(spec.value());
    EXPECT_TRUE(r.passed())
        << path << ": " << (r.violations.empty() ? "" : r.violations[0]);
  }
}

// --- Soak --------------------------------------------------------------------

TEST(Soak, ChaosSweepRotatingSeeds) {
  const TopologySpec topos[] = {TopologySpec::ring(8),
                                TopologySpec::torus({4, 4}),
                                TopologySpec::torus({2, 2, 2})};
  for (std::uint64_t seed = 100; seed < 160; ++seed) {
    CampaignSpec spec;
    spec.seed = seed * 0x9e3779b97f4a7c15ull;
    spec.topology = topos[seed % std::size(topos)];
    spec.workload = workload::kAllKinds[seed % std::size(workload::kAllKinds)];
    const CampaignResult r = run_campaign(spec);
    EXPECT_TRUE(r.passed())
        << "seed " << spec.seed << " on "
        << topology_to_string(spec.topology) << "/"
        << workload::to_string(spec.workload) << ": "
        << (r.violations.empty() ? "" : r.violations[0]);
  }
}

}  // namespace
}  // namespace tca::chaos
