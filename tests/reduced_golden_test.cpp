// Reduced-precision goldens: the f32 and bf16 inference tiers (DESIGN.md
// §15) pinned to literal values, the companion of f64_golden_test. The
// tiers are gated on ranking fidelity against f64, not on bit parity with
// it, but within a tier the arithmetic is fixed: the same seeds, the same
// system and the baseline kernel ISA must reproduce these %.17g values
// (f32 results widened to double at the ChainValues boundary) EXACTLY. A
// diff means the reduced-precision executor's arithmetic changed.
//
// Each case runs the three F64Golden configurations (seeds 42/43/44) and
// checks the scalar forward and every lane of a batched forward. One more
// f32 case pins the ragged system like F64Golden does: seven placements,
// single and as one 7-wide batch. The custom main() forces
// CHAINNET_KERNEL_ISA=baseline before the first kernel call, for the same
// portability reason as f64_golden_test.
#include <gtest/gtest.h>

#include <cstdint>
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

/// The F64Golden configurations: 0 = default (attention) at H=8, N=2;
/// 1 = mean aggregation at H=8, N=2; 2 = the paper configuration.
ChainNetConfig golden_config(int which, tensor::DType dtype) {
  ChainNetConfig cfg;
  if (which == 2) {
    cfg = ChainNetConfig::paper();
  } else {
    cfg.hidden = 8;
    cfg.iterations = 2;
    cfg.attention_aggregation = which == 0;
  }
  cfg.dtype = dtype;
  return cfg;
}

/// Scalar forward and every lane of a 3-wide batch must hit `golden`.
void expect_golden(int which, tensor::DType dtype,
                   const std::vector<Golden>& golden) {
  support::Rng rng(static_cast<std::uint64_t>(42 + which));
  ChainNet model(golden_config(which, dtype), rng);
  const auto g = edge::build_graph(chainnet::testing::small_system(),
                                   chainnet::testing::small_placement(),
                                   model.feature_mode());
  {
    SCOPED_TRACE("scalar");
    expect_exact(model.forward_values(g), golden);
  }
  const std::vector<const edge::PlacementGraph*> ptrs{&g, &g, &g};
  const auto batch = model.forward_values_batch(ptrs);
  ASSERT_EQ(batch.size(), ptrs.size());
  for (std::size_t b = 0; b < batch.size(); ++b) {
    SCOPED_TRACE("lane " + std::to_string(b));
    expect_exact(batch[b], golden);
  }
}

TEST(ReducedGolden, F32AttentionReproducesSeedValues) {
  expect_golden(0, tensor::DType::kF32,
                {{0.44760134816169739, 0.56000077724456787},
                 {0.44760316610336304, 0.52531862258911133}});
}

TEST(ReducedGolden, F32MeanAggregationReproducesSeedValues) {
  expect_golden(1, tensor::DType::kF32,
                {{0.5076783299446106, 0.60644525289535522},
                 {0.51530331373214722, 0.58538186550140381}});
}

TEST(ReducedGolden, F32PaperConfigReproducesSeedValues) {
  expect_golden(2, tensor::DType::kF32,
                {{0.48734453320503235, 0.49020984768867493},
                 {0.48798906803131104, 0.50009274482727051}});
}

TEST(ReducedGolden, F32RaggedSystemSingleAndBatchReproduceSeedValues) {
  support::Rng rng(42);
  ChainNet model(golden_config(0, tensor::DType::kF32), rng);
  const auto system = chainnet::testing::ragged_system();
  const auto placements = chainnet::testing::random_placements(system, 7, 7);
  // One row per placement, one {throughput, latency} pair per chain.
  const std::vector<std::vector<Golden>> golden = {
      {{0.47214922308921814, 0.54598355293273926},
       {0.47206786274909973, 0.54564797878265381},
       {0.48798105120658875, 0.51494061946868896},
       {0.43714171648025513, 0.54391860961914062},
       {0.47832012176513672, 0.55646771192550659}},
      {{0.44880592823028564, 0.58260536193847656},
       {0.4773414134979248, 0.52092128992080688},
       {0.48533457517623901, 0.55386006832122803},
       {0.43434196710586548, 0.53950530290603638},
       {0.47950652241706848, 0.55761861801147461}},
      {{0.47813168168067932, 0.51956254243850708},
       {0.44586223363876343, 0.57912003993988037},
       {0.48412343859672546, 0.52722054719924927},
       {0.47952583432197571, 0.53422969579696655},
       {0.48154172301292419, 0.55133485794067383}},
      {{0.47853121161460876, 0.51870083808898926},
       {0.47145667672157288, 0.5445440411567688},
       {0.4845336377620697, 0.51632601022720337},
       {0.47826623916625977, 0.53619754314422607},
       {0.47322025895118713, 0.55759572982788086}},
      {{0.47641399502754211, 0.52678042650222778},
       {0.44698762893676758, 0.5804370641708374},
       {0.48197317123413086, 0.53637504577636719},
       {0.46983715891838074, 0.54310899972915649},
       {0.47791147232055664, 0.55672168731689453}},
      {{0.47014999389648438, 0.54147690534591675},
       {0.47673189640045166, 0.51114773750305176},
       {0.4875868558883667, 0.51921820640563965},
       {0.44280833005905151, 0.55059307813644409},
       {0.47490468621253967, 0.55907922983169556}},
      {{0.47872564196586609, 0.51366722583770752},
       {0.47824549674987793, 0.51138764619827271},
       {0.45894291996955872, 0.55834382772445679},
       {0.47325727343559265, 0.54719668626785278},
       {0.42406567931175232, 0.56183624267578125}},
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

TEST(ReducedGolden, Bf16AttentionReproducesSeedValues) {
  expect_golden(0, tensor::DType::kBf16,
                {{0.44750350713729858, 0.55990689992904663},
                 {0.44762611389160156, 0.52527379989624023}});
}

TEST(ReducedGolden, Bf16MeanAggregationReproducesSeedValues) {
  expect_golden(1, tensor::DType::kBf16,
                {{0.50772547721862793, 0.6063990592956543},
                 {0.51547145843505859, 0.58529543876647949}});
}

TEST(ReducedGolden, Bf16PaperConfigReproducesSeedValues) {
  expect_golden(2, tensor::DType::kBf16,
                {{0.48697388172149658, 0.49023142457008362},
                 {0.48774254322052002, 0.50011688470840454}});
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
