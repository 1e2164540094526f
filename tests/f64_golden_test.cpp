// f64 non-regression goldens for the default inference tier: the reduced-
// precision work (DESIGN.md §15) promises the f64 path stays bit-for-bit
// identical — the plan executor is one template over the element type
// whose f64 instantiation must keep the f64 kernel-call sequence — and
// this test pins that promise to literal values.
// forward_values / forward_values_batch on a fixed system, fixed init
// seeds, and the baseline kernel ISA must reproduce these %.17g doubles
// EXACTLY on every machine; any diff means the f64 engine's arithmetic
// changed and is a release blocker, not a tolerance tweak.
//
// The custom main() forces CHAINNET_KERNEL_ISA=baseline before the first
// kernel call (the dispatch table resolves once per process): the baseline
// tier is the only one every build machine shares, which is what makes
// literal goldens portable. Cross-tier equality is pinned separately:
// kernels_test, chainnet_batch_test and plan_test re-run on the baseline
// and avx2 tiers via ctest ENVIRONMENT. reduced_golden_test pins the f32
// and bf16 tiers the same way this test pins f64.
//
// Besides small_system(), the ragged system (chains of 1, 1, 2, 7 and 13
// fragments) is pinned under seven placements, single and as one 7-wide
// batch: its single-step chains carry a state that is also the row their
// own step writes, so the literals guard the executor's gather-before-
// write order, not just its arithmetic.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/chainnet.h"
#include "edge/graph.h"
#include "support/rng.h"
#include "test_util.h"

namespace chainnet::core {
namespace {

struct Golden {
  double throughput;
  double latency;
};

void expect_exact(const std::vector<gnn::ChainValues>& out,
                  const std::vector<Golden>& golden) {
  ASSERT_EQ(out.size(), golden.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_TRUE(out[i].has_throughput);
    ASSERT_TRUE(out[i].has_latency);
    // EXPECT_EQ on doubles on purpose: the bar is bit-identity.
    EXPECT_EQ(out[i].throughput, golden[i].throughput) << "chain " << i;
    EXPECT_EQ(out[i].latency, golden[i].latency) << "chain " << i;
  }
}

TEST(F64Golden, ScalarAndBatchForwardReproduceSeedValues) {
  support::Rng rng(42);
  ChainNetConfig cfg;
  cfg.hidden = 8;
  cfg.iterations = 2;
  ChainNet model(cfg, rng);
  const auto g = edge::build_graph(chainnet::testing::small_system(),
                                   chainnet::testing::small_placement(),
                                   model.feature_mode());
  const std::vector<Golden> golden = {
      {0.44760138090678653, 0.56000077468157961},
      {0.44760318290532514, 0.52531863122347211},
  };
  expect_exact(model.forward_values(g), golden);
  // The batched executor shares the contract: every batch lane bit-equal
  // to the scalar path.
  const std::vector<const edge::PlacementGraph*> ptrs{&g, &g, &g};
  const auto batch = model.forward_values_batch(ptrs);
  ASSERT_EQ(batch.size(), 3u);
  for (const auto& lane : batch) expect_exact(lane, golden);
}

TEST(F64Golden, MeanAggregationVariantReproducesSeedValues) {
  support::Rng rng(43);
  ChainNetConfig cfg;
  cfg.hidden = 8;
  cfg.iterations = 2;
  cfg.attention_aggregation = false;
  ChainNet model(cfg, rng);
  const auto g = edge::build_graph(chainnet::testing::small_system(),
                                   chainnet::testing::small_placement(),
                                   model.feature_mode());
  expect_exact(model.forward_values(g),
               {{0.50767832982914174, 0.60644527723765984},
                {0.51530332478720142, 0.58538189430996546}});
}

TEST(F64Golden, PaperConfigReproducesSeedValues) {
  support::Rng rng(44);
  ChainNet model(ChainNetConfig::paper(), rng);
  const auto g = edge::build_graph(chainnet::testing::small_system(),
                                   chainnet::testing::small_placement(),
                                   model.feature_mode());
  expect_exact(model.forward_values(g),
               {{0.4873445592202062, 0.49020981168454048},
                {0.4879890637662691, 0.50009277065035429}});
}

TEST(F64Golden, RaggedSystemSingleAndBatchReproduceSeedValues) {
  support::Rng rng(42);
  ChainNetConfig cfg;
  cfg.hidden = 8;
  cfg.iterations = 2;
  ChainNet model(cfg, rng);
  const auto system = chainnet::testing::ragged_system();
  const auto placements = chainnet::testing::random_placements(system, 7, 7);
  // One row per placement, one {throughput, latency} pair per chain.
  const std::vector<std::vector<Golden>> golden = {
      {{0.47214921495433759, 0.54598354236317426},
       {0.47206784558322334, 0.54564796480357347},
       {0.48798103809106114, 0.51494060785646756},
       {0.43714176399707688, 0.54391859509859797},
       {0.47832010046446838, 0.55646771574687204}},
      {{0.44880592876261338, 0.58260536267670893},
       {0.47734142434317445, 0.52092130655317559},
       {0.48533454414989863, 0.55386003540808548},
       {0.43434197161116272, 0.53950527633227552},
       {0.47950653987887276, 0.557618620825446}},
      {{0.47813169542528061, 0.51956251459453673},
       {0.44586223052267931, 0.57912002400418705},
       {0.48412341974469947, 0.5272205525160707},
       {0.47952584592688596, 0.53422966786965453},
       {0.48154171076605207, 0.55133481120264427}},
      {{0.4785311991114764, 0.51870079390255974},
       {0.47145665365478445, 0.54454399838716316},
       {0.48453364169521629, 0.516326026336276},
       {0.47826622874168923, 0.53619751777643498},
       {0.47322025713688665, 0.55759574273446688}},
      {{0.47641397797388391, 0.5267804306711199},
       {0.44698766047377542, 0.58043709321404369},
       {0.48197314927462087, 0.53637504305992156},
       {0.46983714125026149, 0.54310899320422934},
       {0.47791146907712045, 0.5567216852501885}},
      {{0.47014999236563365, 0.54147689225985074},
       {0.47673190824059275, 0.51114772895747163},
       {0.48758683458290825, 0.51921820225810389},
       {0.44280834024606436, 0.55059309885480823},
       {0.47490467210503462, 0.55907918843629645}},
      {{0.47872567474162403, 0.51366725256705037},
       {0.4782454793793901, 0.51138767289003861},
       {0.45894292679783116, 0.55834380924688654},
       {0.47325727110274385, 0.54719668834130142},
       {0.42406570842950098, 0.56183626209194515}},
  };
  std::vector<edge::PlacementGraph> graphs;
  std::vector<const edge::PlacementGraph*> ptrs;
  graphs.reserve(placements.size());
  for (const auto& p : placements) {
    graphs.push_back(edge::build_graph(system, p, model.feature_mode()));
    ptrs.push_back(&graphs.back());
  }
  for (std::size_t b = 0; b < graphs.size(); ++b) {
    SCOPED_TRACE("single, placement " + std::to_string(b));
    expect_exact(model.forward_values(graphs[b]), golden[b]);
  }
  const auto batch = model.forward_values_batch(ptrs);
  ASSERT_EQ(batch.size(), graphs.size());
  for (std::size_t b = 0; b < batch.size(); ++b) {
    SCOPED_TRACE("batch lane " + std::to_string(b));
    expect_exact(batch[b], golden[b]);
  }
}

}  // namespace
}  // namespace chainnet::core

int main(int argc, char** argv) {
  // Before InitGoogleTest and before any kernel call: goldens are only
  // portable on the ISA tier every machine has.
  ::setenv("CHAINNET_KERNEL_ISA", "baseline", 1);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
