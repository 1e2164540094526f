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
#include <gtest/gtest.h>

#include <cstdlib>
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

}  // namespace
}  // namespace chainnet::core

int main(int argc, char** argv) {
  // Before InitGoogleTest and before any kernel call: goldens are only
  // portable on the ISA tier every machine has.
  ::setenv("CHAINNET_KERNEL_ISA", "baseline", 1);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
