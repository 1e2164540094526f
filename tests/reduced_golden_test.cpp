// Reduced-precision goldens: the f32 and bf16 inference tiers (DESIGN.md
// §15) pinned to literal values, the companion of f64_golden_test. The
// tiers are gated on ranking fidelity against f64, not on bit parity with
// it, but within a tier the arithmetic is fixed: the same seeds, the same
// system and the baseline kernel ISA must reproduce these %.17g values
// (f32 results widened to double at the ChainValues boundary) EXACTLY. A
// diff means the reduced-precision executor's arithmetic changed.
//
// Each case runs the three F64Golden configurations (seeds 42/43/44) and
// checks the scalar forward and every lane of a batched forward. The
// custom main() forces CHAINNET_KERNEL_ISA=baseline before the first
// kernel call, for the same portability reason as f64_golden_test.
#include <gtest/gtest.h>

#include <cstdint>
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
