// Microbenchmarks (google-benchmark): DES event throughput, graph
// construction, ChainNet / GAT inference latency (the paper quotes ~0.01 s
// per graph, §VIII-B3), a full surrogate evaluation (graph build +
// forward) as used inside the SA loop, and the f64 gemm kernel on the
// model's GEMM shapes (GMAC/s on the dispatched ISA tier; force a tier with
// CHAINNET_KERNEL_ISA=baseline|avx2|avx512).
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/chainnet.h"
#include "core/surrogate.h"
#include "edge/graph.h"
#include "edge/problem.h"
#include "edge/qn_mapping.h"
#include "gnn/baselines.h"
#include "optim/initial.h"
#include "queueing/simulator.h"
#include "support/rng.h"
#include "tensor/kernels.h"

namespace {

using namespace chainnet;

edge::NetworkSample make_sample(int min_frags, int max_frags,
                                std::uint64_t seed) {
  auto params = edge::NetworkGenParams::type2();
  params.min_fragments = min_frags;
  params.max_fragments = max_frags;
  support::Rng rng(seed);
  return edge::generate_network_sample(params, rng);
}

void BM_SimulatorEvents(benchmark::State& state) {
  const auto sample = make_sample(4, 8, 1);
  const auto qn = edge::build_qn(sample.system, sample.placement);
  std::uint64_t seed = 1;
  std::uint64_t events = 0;
  for (auto _ : state) {
    queueing::SimConfig cfg;
    cfg.horizon = 2000.0;
    cfg.seed = seed++;
    const auto result = queueing::simulate(qn, cfg);
    events += result.events;
    benchmark::DoNotOptimize(result.chains[0].throughput);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorEvents)->Unit(benchmark::kMillisecond);

void BM_GraphConstruction(benchmark::State& state) {
  const auto sample = make_sample(4, 12, 2);
  for (auto _ : state) {
    const auto g = edge::build_graph(sample.system, sample.placement,
                                     edge::FeatureMode::kModified);
    benchmark::DoNotOptimize(g.num_nodes());
  }
}
BENCHMARK(BM_GraphConstruction)->Unit(benchmark::kMicrosecond);

void BM_ChainNetInference(benchmark::State& state) {
  support::Rng rng(3);
  core::ChainNetConfig cfg;
  cfg.hidden = static_cast<int>(state.range(0));
  cfg.iterations = 4;
  core::ChainNet model(cfg, rng);
  const auto sample = make_sample(6, 12, 4);
  const auto g = edge::build_graph(sample.system, sample.placement,
                                   model.feature_mode());
  for (auto _ : state) {
    const auto out = model.forward(g);
    benchmark::DoNotOptimize(out[0].throughput.item());
  }
  state.counters["nodes"] = static_cast<double>(g.num_nodes());
}
BENCHMARK(BM_ChainNetInference)->Arg(32)->Arg(64)->Unit(
    benchmark::kMillisecond);

void BM_ChainNetFastInference(benchmark::State& state) {
  // The allocation-light forward_values path used inside the optimizer.
  support::Rng rng(3);
  core::ChainNetConfig cfg;
  cfg.hidden = static_cast<int>(state.range(0));
  cfg.iterations = 4;
  core::ChainNet model(cfg, rng);
  const auto sample = make_sample(6, 12, 4);
  const auto g = edge::build_graph(sample.system, sample.placement,
                                   model.feature_mode());
  for (auto _ : state) {
    const auto out = model.forward_values(g);
    benchmark::DoNotOptimize(out[0].throughput);
  }
  state.counters["nodes"] = static_cast<double>(g.num_nodes());
}
BENCHMARK(BM_ChainNetFastInference)->Arg(32)->Arg(64)->Unit(
    benchmark::kMillisecond);

void BM_GatInference(benchmark::State& state) {
  support::Rng rng(5);
  gnn::BaselineConfig cfg;
  cfg.hidden = 32;
  cfg.layers = static_cast<int>(state.range(0));
  gnn::Gat model(cfg, rng);
  const auto sample = make_sample(6, 12, 6);
  const auto g = edge::build_graph(sample.system, sample.placement,
                                   model.feature_mode());
  for (auto _ : state) {
    const auto out = model.forward(g);
    benchmark::DoNotOptimize(out[0].throughput.item());
  }
}
BENCHMARK(BM_GatInference)->Arg(3)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_SurrogateEvaluation(benchmark::State& state) {
  // Full SA-loop evaluation cost: graph build + ChainNet forward + decode.
  support::Rng rng(7);
  core::ChainNetConfig cfg;
  cfg.hidden = 32;
  cfg.iterations = 4;
  core::ChainNet model(cfg, rng);
  core::Surrogate surrogate(model);
  support::Rng gen(8);
  const auto sys = edge::generate_placement_problem(
      edge::PlacementProblemParams::paper(40), gen);
  const auto placement = optim::initial_placement(sys);
  for (auto _ : state) {
    benchmark::DoNotOptimize(surrogate.total_throughput(sys, placement));
  }
}
BENCHMARK(BM_SurrogateEvaluation)->Unit(benchmark::kMillisecond);

void BM_SimulationEvaluation(benchmark::State& state) {
  // The baseline's per-candidate cost at bench search effort.
  support::Rng gen(9);
  const auto sys = edge::generate_placement_problem(
      edge::PlacementProblemParams::paper(40), gen);
  const auto placement = optim::initial_placement(sys);
  const auto qn = edge::build_qn(sys, placement);
  double max_ia = 0.0;
  for (const auto& chain : sys.chains) {
    max_ia = std::max(max_ia, 1.0 / chain.arrival_rate);
  }
  std::uint64_t seed = 1;
  for (auto _ : state) {
    queueing::SimConfig cfg;
    cfg.horizon = 120.0 * max_ia;
    cfg.seed = seed++;
    benchmark::DoNotOptimize(
        queueing::simulate(qn, cfg).total_throughput());
  }
}
BENCHMARK(BM_SimulationEvaluation)->Unit(benchmark::kMillisecond);

void BM_Gemm(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto cols = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  support::Rng rng(rows * cols + n);
  const auto random = [&rng](std::size_t count) {
    std::vector<double> v(count);
    for (auto& e : v) e = rng.uniform(-1.0, 1.0);
    return v;
  };
  const auto w = random(rows * cols);
  const auto bias = random(rows);
  const auto x = random(cols * n);
  std::vector<double> y(rows * n);
  for (auto _ : state) {
    tensor::kernels::gemm(w.data(), bias.data(), x.data(), y.data(), rows,
                          cols, n);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.counters["GMAC/s"] = benchmark::Counter(
      static_cast<double>(rows * cols * n) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
  state.SetLabel(tensor::kernels::isa());
}
// The model's GEMM shapes at paper width (h = 64): GRU input and hidden
// gate panels (3h x 2h, 3h x h), the attention joint projection (h x 3h)
// and the message transform (2h x 2h); n spans a best-of-B sub-batch (4)
// up to a wide device/message panel (336).
BENCHMARK(BM_Gemm)
    ->ArgsProduct({{192}, {128, 64}, {4, 16, 48, 336}})
    ->ArgsProduct({{64}, {192}, {4, 16, 48, 336}})
    ->ArgsProduct({{128}, {128}, {4, 16, 48, 336}})
    ->ArgNames({"rows", "cols", "n"});

}  // namespace

BENCHMARK_MAIN();
