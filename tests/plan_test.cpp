// Compiled execution plans (gnn/plan.h): the contracts the plan IR PR
// rests on.
//  * Parity gate: plan replay (forward_values / forward_values_batch) must
//    equal the interpreted Algorithm-2 reference executor bit-for-bit, on
//    every ablation configuration and every B in {1, 2, 7, 32}, on a
//    paper-sized system and on one with ragged chain lengths;
//  * Cache keying: placement-only and weight-only mutations never
//    recompile, a topology change does, and distinct batch widths compile
//    distinct plans;
//  * Concurrency: concurrent first lookups through one shared cache
//    produce exactly one compile and bit-identical outputs (the TSan
//    coverage for read-only plan sharing — wired into check_tsan.sh);
//  * Plumbing: EvalService injects one cache into all workers, the model
//    registry's cache survives a weights hot swap, and CHAINNET_INTERPRET=1
//    dispatches to the reference executor without compiling anything.
#include "gnn/plan.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/chainnet.h"
#include "core/surrogate.h"
#include "edge/graph.h"
#include "edge/problem.h"
#include "gnn/model.h"
#include "gnn/plan_compiler.h"
#include "optim/evaluator.h"
#include "runtime/eval_service.h"
#include "runtime/thread_pool.h"
#include "serve/registry.h"
#include "support/rng.h"
#include "tensor/serialize.h"
#include "test_util.h"

namespace chainnet::core {
namespace {

using support::Rng;

edge::EdgeSystem medium_system(std::uint64_t seed) {
  auto params = edge::PlacementProblemParams::paper(16);
  Rng rng(seed);
  return edge::generate_placement_problem(params, rng);
}

using chainnet::testing::random_placements;

std::vector<edge::PlacementGraph> build_graphs(
    const ChainNet& model, const edge::EdgeSystem& system,
    std::span<const edge::Placement> placements) {
  std::vector<edge::PlacementGraph> graphs;
  graphs.reserve(placements.size());
  for (const auto& p : placements) {
    graphs.push_back(edge::build_graph(system, p, model.feature_mode()));
  }
  return graphs;
}

std::vector<const edge::PlacementGraph*> pointers(
    const std::vector<edge::PlacementGraph>& graphs) {
  std::vector<const edge::PlacementGraph*> ptrs;
  ptrs.reserve(graphs.size());
  for (const auto& g : graphs) ptrs.push_back(&g);
  return ptrs;
}

void expect_values_equal(const std::vector<gnn::ChainValues>& a,
                         const std::vector<gnn::ChainValues>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].has_throughput, b[i].has_throughput) << "chain " << i;
    EXPECT_EQ(a[i].has_latency, b[i].has_latency) << "chain " << i;
    EXPECT_EQ(a[i].throughput, b[i].throughput) << "chain " << i;
    EXPECT_EQ(a[i].latency, b[i].latency) << "chain " << i;
  }
}

struct NamedConfig {
  const char* name;
  ChainNetConfig cfg;
};

/// Every ablation of the batch-parity suite plus the unfused kernel path:
/// the plan executor must be bit-exact on all of them.
std::vector<NamedConfig> all_configs() {
  ChainNetConfig no_attention;
  no_attention.attention_aggregation = false;
  ChainNetConfig unfused;
  unfused.fused_kernels = false;
  return {{"chainnet", ChainNetConfig{}},
          {"alpha", ChainNetConfig::ablation_alpha()},
          {"beta", ChainNetConfig::ablation_beta()},
          {"delta", ChainNetConfig::ablation_delta()},
          {"mean_agg", no_attention},
          {"unfused", unfused}};
}

/// The paper-sized generated system, or the hand-built ragged one whose
/// chains of 1, 1, 2, 7 and 13 steps make the batched chain pass run
/// waves of every width from 5 chains down to 1.
enum class TestSystem { kPaper, kRagged };

edge::EdgeSystem test_system(TestSystem which) {
  return which == TestSystem::kRagged ? chainnet::testing::ragged_system()
                                      : medium_system(42);
}

class PlanParitySweep
    : public ::testing::TestWithParam<std::tuple<int, TestSystem>> {};

TEST_P(PlanParitySweep, ReplayMatchesInterpretedOnEveryConfig) {
  const auto [batch, which] = GetParam();
  const auto system = test_system(which);
  const auto placements = random_placements(system, batch, 7);
  for (const auto& named : all_configs()) {
    auto cfg = named.cfg;
    cfg.hidden = 16;
    cfg.iterations = 3;
    Rng rng(3);
    ChainNet model(cfg, rng);
    SCOPED_TRACE(named.name);

    const auto graphs = build_graphs(model, system, placements);
    const auto ptrs = pointers(graphs);

    // Single forwards (width-1 plans) vs the interpreted walk, per lane.
    for (std::size_t b = 0; b < graphs.size(); ++b) {
      SCOPED_TRACE("lane " + std::to_string(b));
      const auto replayed = model.forward_values(graphs[b]);
      const auto reference = model.forward_values_interpreted(graphs[b]);
      expect_values_equal(replayed, reference);
    }

    // Batched executor vs the interpreted batch walk.
    const auto replayed = model.forward_values_batch(ptrs);
    const auto reference = model.forward_values_batch_interpreted(ptrs);
    ASSERT_EQ(replayed.size(), reference.size());
    for (std::size_t b = 0; b < replayed.size(); ++b) {
      SCOPED_TRACE("batch lane " + std::to_string(b));
      expect_values_equal(replayed[b], reference[b]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, PlanParitySweep,
    ::testing::Combine(::testing::Values(1, 2, 7, 32),
                       ::testing::Values(TestSystem::kPaper,
                                         TestSystem::kRagged)),
    [](const ::testing::TestParamInfo<PlanParitySweep::ParamType>& sweep) {
      return "B" + std::to_string(std::get<0>(sweep.param)) +
             (std::get<1>(sweep.param) == TestSystem::kRagged ? "_ragged"
                                                              : "_paper");
    });

TEST(PlanCompiler, RaggedChainsCompileOneWavePerStepPosition) {
  const auto system = chainnet::testing::ragged_system();
  const auto placements = random_placements(system, 1, 5);
  gnn::PlanShape shape;
  shape.hidden = 8;
  shape.iterations = 2;
  shape.attention_heads = 1;
  const auto graph = edge::build_graph(system, placements[0],
                                       edge::FeatureMode::kModified);
  const auto plan = gnn::compile_plan(graph, shape, 4);
  // 13 step positions per iteration; wave k holds the chains longer than k.
  ASSERT_EQ(plan->waves.size(), 26u);
  const std::size_t widths[] = {5, 3, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1};
  for (std::size_t k = 0; k < 26; ++k) {
    EXPECT_EQ(plan->waves[k].size(), widths[k % 13]) << "wave " << k;
  }
  std::size_t wave_ops = 0;
  for (const gnn::PlanOp& op : plan->ops) {
    wave_ops += op.kind == gnn::PlanOpKind::kBatchChainWave;
  }
  EXPECT_EQ(wave_ops, 26u);
}

TEST(PlanCache, PlacementMutationsNeverRecompile) {
  const auto system = medium_system(42);
  const auto placements = random_placements(system, 8, 11);
  ChainNetConfig cfg;
  cfg.hidden = 8;
  cfg.iterations = 2;
  Rng rng(3);
  ChainNet model(cfg, rng);
  const auto graphs = build_graphs(model, system, placements);
  for (const auto& g : graphs) model.forward_values(g);
  const auto stats = model.plan_cache()->stats();
  EXPECT_EQ(stats.compiles, 1u) << "placement-only changes must replay";
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PlanCache, WeightMutationChangesOutputsWithoutRecompiling) {
  const auto system = medium_system(42);
  const auto placements = random_placements(system, 1, 11);
  ChainNetConfig cfg;
  cfg.hidden = 8;
  cfg.iterations = 2;
  Rng rng(3);
  ChainNet model(cfg, rng);
  const auto graph =
      edge::build_graph(system, placements[0], model.feature_mode());

  const auto before = model.forward_values(graph);
  ASSERT_FALSE(model.parameters().empty());
  model.parameters()[0]->var.mutable_value()[0] += 0.25;
  const auto after = model.forward_values(graph);

  bool changed = false;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (before[i].throughput != after[i].throughput) changed = true;
  }
  EXPECT_TRUE(changed) << "weight mutation must reach the replayed forward";
  EXPECT_EQ(model.plan_cache()->stats().compiles, 1u)
      << "plans are weight-independent";
}

TEST(PlanCache, TopologyChangeCompilesANewPlan) {
  ChainNetConfig cfg;
  cfg.hidden = 8;
  cfg.iterations = 2;
  Rng rng(3);
  ChainNet model(cfg, rng);

  const auto system_a = medium_system(42);
  const auto system_b = medium_system(43);
  const auto p_a = random_placements(system_a, 1, 11);
  const auto p_b = random_placements(system_b, 1, 11);
  model.forward_values(
      edge::build_graph(system_a, p_a[0], model.feature_mode()));
  EXPECT_EQ(model.plan_cache()->stats().compiles, 1u);
  model.forward_values(
      edge::build_graph(system_b, p_b[0], model.feature_mode()));
  EXPECT_EQ(model.plan_cache()->stats().compiles, 2u)
      << "a different system topology must compile its own plan";
  // Returning to the first system replays its still-cached plan.
  model.forward_values(
      edge::build_graph(system_a, p_a[0], model.feature_mode()));
  EXPECT_EQ(model.plan_cache()->stats().compiles, 2u);
}

TEST(PlanCache, DistinctWidthsCompileDistinctPlans) {
  const auto system = medium_system(42);
  const auto placements = random_placements(system, 4, 11);
  ChainNetConfig cfg;
  cfg.hidden = 8;
  cfg.iterations = 2;
  Rng rng(3);
  ChainNet model(cfg, rng);
  const auto graphs = build_graphs(model, system, placements);
  const auto ptrs = pointers(graphs);

  model.forward_values(graphs[0]);       // width 1
  model.forward_values_batch(ptrs);      // width 4
  EXPECT_EQ(model.plan_cache()->stats().compiles, 2u);
  model.forward_values_batch(ptrs);      // replay
  model.forward_values(graphs[1]);       // replay
  EXPECT_EQ(model.plan_cache()->stats().compiles, 2u);

  // A single forward resolves the width-1 key: a cache prewarmed through
  // lookup_or_compile(g, shape, 1), as a serving backend prewarms its
  // widths, answers it without another compile.
  Rng fresh_rng(3);
  ChainNet fresh(cfg, fresh_rng);
  const auto cache = std::make_shared<gnn::PlanCache>();
  fresh.set_plan_cache(cache);
  gnn::PlanShape shape;
  shape.hidden = cfg.hidden;
  shape.iterations = cfg.iterations;
  shape.attention_heads = cfg.attention_heads;
  shape.modified_outputs = cfg.modified_outputs;
  shape.attention_aggregation = cfg.attention_aggregation;
  shape.dtype = cfg.dtype;
  cache->lookup_or_compile(graphs[0], shape, 1);
  ASSERT_EQ(cache->stats().compiles, 1u);
  fresh.forward_values(graphs[2]);
  EXPECT_EQ(cache->stats().compiles, 1u)
      << "a single forward must replay the prewarmed width-1 plan";
}

TEST(PlanCache, DistinctDtypesCompileDistinctPlans) {
  // dtype is part of the plan key: an f32 model must never replay through
  // a plan another model compiled as f64 (the executors size and type the
  // arena by the key's element width) — one compile per dtype, no
  // cross-dtype reuse.
  const auto system = medium_system(42);
  const auto placements = random_placements(system, 4, 11);
  ChainNetConfig cfg;
  cfg.hidden = 8;
  cfg.iterations = 2;
  Rng rng_f64(3);
  ChainNet model_f64(cfg, rng_f64);
  auto cfg_f32 = cfg;
  cfg_f32.dtype = tensor::DType::kF32;
  Rng rng_f32(3);
  ChainNet model_f32(cfg_f32, rng_f32);
  const auto cache = std::make_shared<gnn::PlanCache>();
  model_f64.set_plan_cache(cache);
  model_f32.set_plan_cache(cache);
  const auto graphs = build_graphs(model_f64, system, placements);
  const auto ptrs = pointers(graphs);

  model_f64.forward_values(graphs[0]);
  EXPECT_EQ(cache->stats().compiles, 1u);
  model_f32.forward_values(graphs[0]);
  EXPECT_EQ(cache->stats().compiles, 2u)
      << "the f32 tier must compile its own plan, not reuse the f64 one";
  model_f64.forward_values_batch(ptrs);
  model_f32.forward_values_batch(ptrs);
  EXPECT_EQ(cache->stats().compiles, 4u);
  // Replays: every (dtype, width) combination is now cached.
  model_f64.forward_values(graphs[1]);
  model_f32.forward_values(graphs[1]);
  model_f64.forward_values_batch(ptrs);
  model_f32.forward_values_batch(ptrs);
  EXPECT_EQ(cache->stats().compiles, 4u);

  // Same weights (same init seed): the reduced tier tracks the f64 values
  // to f32 roundoff while the plans stay separate.
  const auto out64 = model_f64.forward_values(graphs[0]);
  const auto out32 = model_f32.forward_values(graphs[0]);
  ASSERT_EQ(out64.size(), out32.size());
  for (std::size_t i = 0; i < out64.size(); ++i) {
    EXPECT_NEAR(out32[i].throughput, out64[i].throughput,
                1e-4 * std::abs(out64[i].throughput) + 1e-6)
        << "chain " << i;
  }
}

TEST(PlanCache, DtypeChangesFingerprintAndKeyEquality) {
  gnn::PlanShape f64_shape;
  f64_shape.hidden = 8;
  f64_shape.iterations = 2;
  f64_shape.attention_heads = 2;
  auto f32_shape = f64_shape;
  f32_shape.dtype = tensor::DType::kF32;
  EXPECT_FALSE(f64_shape == f32_shape);
  const auto system = medium_system(42);
  const auto g = edge::build_graph(
      system, random_placements(system, 1, 11)[0], edge::FeatureMode::kModified);
  EXPECT_NE(gnn::plan_fingerprint(g, f64_shape, 4),
            gnn::plan_fingerprint(g, f32_shape, 4));
}

TEST(PlanCache, ConcurrentFirstLookupsCompileOnceAndMatchSerial) {
  const auto system = medium_system(42);
  const auto placements = random_placements(system, 4, 11);
  ChainNetConfig cfg;
  cfg.hidden = 8;
  cfg.iterations = 2;

  Rng serial_rng(3);
  ChainNet serial_model(cfg, serial_rng);
  const auto graphs = build_graphs(serial_model, system, placements);
  std::vector<std::vector<gnn::ChainValues>> serial;
  for (const auto& g : graphs) serial.push_back(serial_model.forward_values(g));

  // Fresh shared cache; every thread owns a model (same seed => same
  // weights) but resolves plans through the one cache, concurrently.
  auto cache = std::make_shared<gnn::PlanCache>();
  constexpr int kThreads = 4;
  std::vector<std::vector<std::vector<gnn::ChainValues>>> results(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(3);
        ChainNet model(cfg, rng);
        model.set_plan_cache(cache);
        for (const auto& g : graphs) {
          results[static_cast<std::size_t>(t)].push_back(
              model.forward_values(g));
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }

  EXPECT_EQ(cache->stats().compiles, 1u)
      << "concurrent first lookups must collapse to one compile";
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      SCOPED_TRACE("thread " + std::to_string(t) + " graph " +
                   std::to_string(i));
      expect_values_equal(results[static_cast<std::size_t>(t)][i], serial[i]);
    }
  }
}

TEST(PlanCache, EvalServiceSharesOneCacheAcrossWorkers) {
  const auto system = medium_system(42);
  const auto placements = random_placements(system, 12, 51);
  ChainNetConfig cfg;
  cfg.hidden = 8;
  cfg.iterations = 2;

  // Each chunk waits at the latch until the other chunk has started, so
  // the two chunks always run on two different workers. Without it one
  // worker may take both chunks, and its second chunk hits the model's
  // private plan memo instead of the shared cache.
  std::latch both_chunks(2);
  runtime::ThreadPool pool(2);
  runtime::EvalService service(
      pool,
      [cfg, &both_chunks](
          support::Rng) -> std::unique_ptr<optim::PlacementEvaluator> {
        struct Owning final : optim::PlacementEvaluator {
          Owning(const ChainNetConfig& c, std::latch& gate)
              : rng(3), model(c, rng), eval(model), chunk_gate(gate) {}
          double total_throughput(const edge::EdgeSystem& s,
                                  const edge::Placement& p) override {
            record_evaluation();
            return eval.total_throughput(s, p);
          }
          void total_throughput_batch(const edge::EdgeSystem& s,
                                      std::span<const edge::Placement> ps,
                                      std::span<double> out) override {
            chunk_gate.arrive_and_wait();
            eval.total_throughput_batch(s, ps, out);
          }
          void set_plan_cache(std::shared_ptr<gnn::PlanCache> c) override {
            model.set_plan_cache(std::move(c));
          }
          Rng rng;
          ChainNet model;
          Surrogate eval;
          std::latch& chunk_gate;
        };
        return std::make_unique<Owning>(cfg, both_chunks);
      },
      99);

  service.evaluate_batch(system, placements);
  const auto stats = service.plan_cache()->stats();
  // 12 placements fan out as two width-6 chunks to two workers: one
  // compiles the width-6 plan, the other replays it from the shared cache.
  EXPECT_EQ(stats.compiles, 1u) << "workers must share one plan cache";
  EXPECT_GE(stats.hits, 1u);
}

TEST(PlanDispatch, InterpretEnvBypassesCompilationEntirely) {
  const auto system = medium_system(42);
  const auto placements = random_placements(system, 2, 11);
  ChainNetConfig cfg;
  cfg.hidden = 8;
  cfg.iterations = 2;
  Rng rng(3);
  ChainNet model(cfg, rng);
  const auto graphs = build_graphs(model, system, placements);
  const auto ptrs = pointers(graphs);

  ASSERT_EQ(setenv("CHAINNET_INTERPRET", "1", 1), 0);
  const auto scalar_env = model.forward_values(graphs[0]);
  const auto batch_env = model.forward_values_batch(ptrs);
  EXPECT_EQ(model.plan_cache()->stats().compiles, 0u)
      << "CHAINNET_INTERPRET=1 must run the reference executor only";
  ASSERT_EQ(unsetenv("CHAINNET_INTERPRET"), 0);

  const auto scalar_plan = model.forward_values(graphs[0]);
  const auto batch_plan = model.forward_values_batch(ptrs);
  EXPECT_GE(model.plan_cache()->stats().compiles, 1u);
  expect_values_equal(scalar_env, scalar_plan);
  ASSERT_EQ(batch_env.size(), batch_plan.size());
  for (std::size_t b = 0; b < batch_env.size(); ++b) {
    expect_values_equal(batch_env[b], batch_plan[b]);
  }
}

TEST(PlanDump, ListsOpsAndScratchAccounting) {
  const auto system = medium_system(42);
  const auto placements = random_placements(system, 1, 11);
  ChainNetConfig cfg;
  cfg.hidden = 8;
  cfg.iterations = 2;
  gnn::PlanShape shape;
  shape.hidden = cfg.hidden;
  shape.iterations = cfg.iterations;
  shape.attention_heads = cfg.attention_heads;
  shape.modified_outputs = cfg.modified_outputs;
  shape.attention_aggregation = cfg.attention_aggregation;
  const auto graph = edge::build_graph(system, placements[0],
                                       edge::FeatureMode::kModified);

  // A single forward compiles the wave plan like every other width.
  const auto single = gnn::compile_plan(graph, shape, 1);
  const std::string text = single->dump();
  EXPECT_NE(text.find("scratch:"), std::string::npos) << text;
  std::vector<std::string> names;
  for (std::size_t at = text.find("\n["); at != std::string::npos;
       at = text.find("\n[", at + 1)) {
    const std::size_t begin = text.find("] ", at) + 2;
    names.push_back(text.substr(begin, text.find_first_of(" \n", begin) - begin));
  }
  ASSERT_EQ(names.size(), single->ops.size()) << text;
  const auto listed = [&names](const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  EXPECT_TRUE(listed("BatchEncodeService")) << text;
  EXPECT_TRUE(listed("BatchChainWave")) << text;
  EXPECT_TRUE(listed("BatchReadout")) << text;
  for (const char* gone : {"EncodeService", "EncodeFragment", "EncodeDevices",
                           "GruChainStep", "DevicePass", "Readout"}) {
    EXPECT_FALSE(listed(gone)) << gone << " is not an op of any plan";
  }

  // Width changes the panels, never the schedule: widths 1 and 2 of one
  // topology run the same op kinds on the same entities and waves, and
  // differ only in their offsets.
  const auto pair = gnn::compile_plan(graph, shape, 2);
  ASSERT_EQ(pair->ops.size(), single->ops.size());
  for (std::size_t i = 0; i < single->ops.size(); ++i) {
    EXPECT_EQ(pair->ops[i].kind, single->ops[i].kind) << "op " << i;
    EXPECT_EQ(pair->ops[i].a, single->ops[i].a) << "op " << i;
  }
  ASSERT_EQ(pair->waves.size(), single->waves.size());
  for (std::size_t k = 0; k < single->waves.size(); ++k) {
    ASSERT_EQ(pair->waves[k].size(), single->waves[k].size()) << "wave " << k;
    for (std::size_t w = 0; w < single->waves[k].size(); ++w) {
      EXPECT_EQ(pair->waves[k][w].step, single->waves[k][w].step);
    }
  }
  EXPECT_GT(pair->meta.scratch_elems, single->meta.scratch_elems);

  const auto batched = gnn::compile_plan(graph, shape, 32);
  EXPECT_NE(single->fingerprint, batched->fingerprint)
      << "width is part of the plan key";
}

/// Registry hot swap: new weights, same plans (the serve-flusher satellite).
TEST(PlanRegistry, HotSwapKeepsCompiledPlans) {
  namespace fs = std::filesystem;
  // Per process: ctest runs this suite once per ISA tier, concurrently.
  const fs::path dir = fs::temp_directory_path() /
                       ("chainnet_plan_registry_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  core::ChainNetConfig config;
  config.hidden = 8;
  config.iterations = 1;
  const auto write_version = [&](std::uint32_t version, std::uint64_t seed) {
    Rng rng(seed);
    ChainNet model(config, rng);
    const auto params =
        dir / ("weights_v" + std::to_string(version) + ".bin");
    tensor::save_parameters(model, params.string());
    tensor::WeightsManifest manifest;
    manifest.version = version;
    manifest.params_path = params.filename().string();
    manifest.checksum = tensor::file_checksum(params.string());
    manifest.hidden = config.hidden;
    manifest.iterations = config.iterations;
    const auto path = dir / ("v" + std::to_string(version) + ".json");
    tensor::save_manifest(manifest, path.string());
    return path.string();
  };

  const auto system = medium_system(42);
  const auto placements = random_placements(system, 1, 11);
  serve::ModelRegistry registry(config, 1);

  registry.load(write_version(1, 11));
  const double v1 = registry.active()->surrogate(0).total_throughput(
      system, placements[0]);
  const auto after_v1 = registry.plan_cache()->stats();
  EXPECT_GE(after_v1.compiles, 1u);

  registry.load(write_version(2, 23));
  const double v2 = registry.active()->surrogate(0).total_throughput(
      system, placements[0]);
  const auto after_v2 = registry.plan_cache()->stats();
  EXPECT_NE(v1, v2) << "distinct weights must score differently";
  EXPECT_EQ(after_v2.compiles, after_v1.compiles)
      << "a weights hot swap must not recompile any plan";
  EXPECT_GT(after_v2.hits, after_v1.hits)
      << "the new version must replay the old version's plans";

  const auto stats = registry.stats_json();
  ASSERT_TRUE(stats.has("plan_cache"));
  EXPECT_EQ(stats.at("plan_cache").at("compiles").as_number(),
            static_cast<double>(after_v2.compiles));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace chainnet::core
