// `search`: the offline `optimize` path. Best-of-B population search
// (B = 16, fixed steps, fixed trial seeds) over Table-VII problems with 12
// chains on 40 devices, scored by the paper-sized ChainNet (hidden 64, 8
// iterations, seeded weights) through an EvalService on 4 pool threads
// with no score cache. Nearly all wall time is the batched GNN forward and
// the runtime fan-out; serving, the tape and the simulator stay idle.
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/surrogate.h"
#include "edge/problem.h"
#include "gnn/plan.h"
#include "optim/initial.h"
#include "runtime/eval_service.h"
#include "runtime/thread_pool.h"
#include "search/optimizer.h"
#include "support/rng.h"

namespace perfbench {
namespace {

using namespace chainnet;

constexpr int kDevices = 40;
constexpr int kChains = 12;
constexpr int kFragments = 84;  // kChains x the Table-VII mean of 7
constexpr int kProblems = 4;
constexpr int kPopulation = 16;
constexpr int kSteps = 8;
constexpr int kThreads = 4;
constexpr int kScalarSamples = 8;   ///< batch-vs-scalar parity sample

core::ChainNetConfig model_config() { return core::ChainNetConfig::paper(); }

/// The problems searched and their starting placements.
struct SearchInputs {
  std::vector<edge::EdgeSystem> problems;
  std::vector<edge::Placement> initials;
};

/// The system set-up builds: models, pool, service and optimizer.
struct SearchSystem {
  std::vector<std::unique_ptr<core::ChainNet>> models;  // one per evaluator
  std::unique_ptr<runtime::ThreadPool> pool;
  std::unique_ptr<runtime::EvalService> service;
  std::unique_ptr<search::Optimizer> optimizer;
};

SearchInputs make_inputs(const Options& options) {
  SearchInputs inputs;
  for (int p = 0; p < kProblems; ++p) {
    inputs.problems.push_back(sized_problem(
        kDevices, kChains, kFragments, derive_seed(options.seed, 100 + p)));
    inputs.initials.push_back(optim::initial_placement(inputs.problems.back()));
  }
  return inputs;
}

std::unique_ptr<SearchSystem> build(const Options& options,
                                    const SearchInputs& inputs,
                                    Tracer& tracer) {
  auto state = std::make_unique<SearchSystem>();
  const std::uint64_t weights_seed = derive_seed(options.seed, 1);
  SearchSystem* raw = state.get();
  runtime::EvalService::EvaluatorFactory factory =
      [raw, weights_seed, &tracer](support::Rng)
      -> std::unique_ptr<optim::PlacementEvaluator> {
    raw->models.push_back(seeded_chainnet(model_config(), weights_seed));
    auto plain = std::make_unique<optim::SurrogateEvaluator>(
        core::Surrogate(*raw->models.back()));
    if (!tracer.enabled()) return plain;
    return std::make_unique<TimingEvaluator>(std::move(plain), tracer,
                                             model_config());
  };
  state->pool = std::make_unique<runtime::ThreadPool>(kThreads);
  state->service = std::make_unique<runtime::EvalService>(
      *state->pool, std::move(factory), derive_seed(options.seed, 2));
  search::SearchConfig config;
  config.population = kPopulation;
  config.sa.max_steps = kSteps;
  state->optimizer =
      search::make_optimizer(search::Algo::kBestOfB, *state->service, config);
  // Compile every plan the timed runs replay (one per problem topology at
  // the per-worker chunk width) so no compile lands inside the timing.
  for (int p = 0; p < kProblems; ++p) {
    const std::vector<edge::Placement> batch(kPopulation, inputs.initials[p]);
    state->service->evaluate_batch(inputs.problems[p], batch);
  }
  return state;
}

}  // namespace

Outcome run_search(const Options& options, Tracer& tracer) {
  Outcome outcome;
  const SearchInputs inputs = make_inputs(options);
  SetupTimes setup;
  const auto build_system = [&] { return build(options, inputs, tracer); };
  auto state = setup.before(build_system);
  std::uint64_t compiles_after_setup =
      state->service->plan_cache()->stats().compiles;
  std::uint64_t window_compiles = 0;

  // Timed: whole cycles over the problem set (every cycle repeats the same
  // seeded trials, so a faster build does the same work per cycle) until
  // the time is spent. Before each cycle after the first the system is set
  // up afresh (identical weights and plans), off the window's clock.
  std::vector<double> cycle_rates;
  std::vector<double> step_ms;
  std::vector<optim::SaResult> last(kProblems);
  optim::SearchCounters counters;
  std::uint64_t placements = 0;
  double search_seconds = 0.0;
  double off_clock_s = 0.0;
  const auto t0 = Clock::now();
  const std::int64_t root = tracer.begin("workload.search", -1);
  do {
    if (!cycle_rates.empty()) {
      const auto s0 = Clock::now();
      tracer.set_current_parent(-1);
      window_compiles +=
          state->service->plan_cache()->stats().compiles - compiles_after_setup;
      state.reset();
      state = setup.time(build_system);
      compiles_after_setup = state->service->plan_cache()->stats().compiles;
      off_clock_s += seconds_between(s0, Clock::now());
    }
    std::uint64_t cycle_evals = 0;
    double cycle_seconds = 0.0;
    for (int p = 0; p < kProblems; ++p) {
      const std::int64_t run_span = tracer.begin("search.run", root);
      tracer.set_current_parent(run_span);
      const auto r0 = Clock::now();
      last[p] = state->optimizer->run(inputs.problems[p], inputs.initials[p],
                                      derive_seed(options.seed, 200 + p));
      const double run_s = seconds_between(r0, Clock::now());
      tracer.end(run_span, last[p].evaluations);
      cycle_evals += last[p].evaluations;
      cycle_seconds += run_s;
      counters.merge(last[p].counters);
      const auto& traj = last[p].trajectory;
      for (std::size_t i = 1; i < traj.size(); ++i) {
        step_ms.push_back(1e3 * (traj[i].seconds - traj[i - 1].seconds));
      }
    }
    placements += cycle_evals;
    search_seconds += cycle_seconds;
    cycle_rates.push_back(static_cast<double>(cycle_evals) / cycle_seconds);
  } while (seconds_between(t0, Clock::now()) - off_clock_s < options.seconds);
  const double wall_s = seconds_between(t0, Clock::now()) - off_clock_s;
  tracer.set_current_parent(-1);
  tracer.end(root, placements);

  // Correctness, outside the timing: every best placement is feasible and
  // a fresh scalar surrogate rescoring it gives the reported objective bit
  // for bit; sampled placements score identically through the batched and
  // the scalar path.
  auto reference_model =
      seeded_chainnet(model_config(), derive_seed(options.seed, 1));
  const core::Surrogate reference(*reference_model);
  for (int p = 0; p < kProblems; ++p) {
    const auto& system = inputs.problems[p];
    const auto& best = last[p].best;
    bool valid = true;
    try {
      best.validate(system);
    } catch (const std::exception&) {
      valid = false;
    }
    outcome.check(valid && best.memory_feasible(system),
                  "search: best placement of problem " + std::to_string(p) +
                      " is infeasible");
    if (!valid) continue;
    outcome.check(same_bits(reference.total_throughput(system, best),
                            last[p].best_objective),
                  "search: rescoring the best placement of problem " +
                      std::to_string(p) + " differs from its objective");
    support::Rng rng(derive_seed(options.seed, 300 + p));
    std::vector<edge::Placement> sample;
    for (int i = 0; i < kScalarSamples; ++i) {
      sample.push_back(edge::random_placement(system, rng));
    }
    std::vector<double> batched(sample.size());
    reference.total_throughput_batch(system, sample, batched);
    for (std::size_t i = 0; i < sample.size(); ++i) {
      outcome.check(same_bits(batched[i],
                              reference.total_throughput(system, sample[i])),
                    "search: batched and scalar scores differ on problem " +
                        std::to_string(p));
    }
  }

  const std::uint64_t runs = cycle_rates.size() * kProblems;
  outcome.attempted = runs;
  outcome.failed = 0;
  outcome.unit_cost = search_seconds / static_cast<double>(placements);
  outcome.add("setup_s", setup.median_s(), "s");
  outcome.add("peak_rss_mb", peak_rss_mb(), "MB");
  outcome.add("rate_per_s", median(cycle_rates), "1/s");
  outcome.add("p50_ms", quantile(step_ms, 0.50), "ms");

  auto& d = outcome.detail;
  d["step_ms_p90"] = support::Json(quantile(step_ms, 0.90));
  d["step_ms_p99"] = support::Json(quantile(step_ms, 0.99));
  d["placements"] = support::Json(static_cast<double>(placements));
  d["search_runs"] = support::Json(static_cast<double>(runs));
  d["cycles"] = support::Json(static_cast<double>(cycle_rates.size()));
  d["steps"] = support::Json(static_cast<double>(step_ms.size()));
  d["wall_s"] = support::Json(wall_s);
  d["proposals"] = support::Json(static_cast<double>(counters.proposals));
  d["proposal_failures"] =
      support::Json(static_cast<double>(counters.proposal_failures));
  d["accepts"] = support::Json(static_cast<double>(counters.accepts));
  d["batched_fraction"] =
      support::Json(state->service->stats().batched_fraction());
  d["plan_compiles_in_window"] = support::Json(static_cast<double>(
      window_compiles + state->service->plan_cache()->stats().compiles -
      compiles_after_setup));
  d["setups"] = support::Json(static_cast<double>(setup.count()));

  if (tracer.enabled()) {
    const auto spans = tracer.spans();
    const ForwardTotals forward = forward_totals(spans);
    const double run_s = total_seconds(spans, "search.run");
    const double covered = covered_seconds(spans, "core.forward", "search.run");
    outcome.add_layer("core.forward_us_per_placement",
                      forward.us_per_placement(), "us");
    outcome.add_layer("core.batch_width_mean", forward.batch_width_mean(),
                      "count");
    // Per worker: MACs computed from the model shape over forward time.
    outcome.add_layer("tensor.gmac_per_s", forward.macs / forward.seconds / 1e9,
                      "GMAC/s");
    outcome.add_layer("runtime.worker_busy_share",
                      forward.seconds / (run_s * kThreads), "share");
    outcome.add_layer("search.self_share", (run_s - covered) / run_s, "share");
    outcome.add_layer("search.accept_share",
                      static_cast<double>(counters.accepts) /
                          static_cast<double>(counters.proposals),
                      "share");
    outcome.add_layer("gnn.plan_compiles",
                      static_cast<double>(
                          state->service->plan_cache()->stats().compiles),
                      "count");
  }
  return outcome;
}

}  // namespace perfbench
