// `train`: a surrogate refresh. Labels freshly generated Type-I samples
// with the DES simulator through gnn::generate_dataset, trains the
// CLI-default ChainNet (hidden 32, 4 iterations) for fixed epochs with
// gnn::train, and scores it on a held-out set with gnn::evaluate_loss. The
// only workload on the autodiff tape (forward + backward, Adam) and on the
// queueing simulator; it writes the weights the other workloads only read.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "edge/problem.h"
#include "gnn/dataset.h"
#include "gnn/trainer.h"
#include "support/rng.h"
#include "tensor/tape.h"

namespace perfbench {
namespace {

using namespace chainnet;

// Type-I samples vary several-fold in size, so a refresh labels and trains
// on enough of them that its mean sample size, and with it every timing
// here, varies little between seeds.
constexpr int kLabels = 480;   ///< training samples labeled per refresh
constexpr int kHoldout = 48;   ///< held-out samples (labeled in set-up)
constexpr int kEpochs = 2;
constexpr int kBatch = 32;

gnn::LabelingConfig labeling() { return gnn::LabelingConfig{}; }

struct TrainState {
  gnn::Dataset holdout;
  double initial_loss = 0.0;
};

/// Set-up labels the held-out set and scores the untrained model on it.
/// The held-out set is the same for every seed, like a fixed validation
/// set: set-up time differed by up to a third between seeds' sets, which
/// would read as set-up noise. The seed varies the training data and the
/// initial weights.
std::unique_ptr<TrainState> build(const Options& options) {
  constexpr std::uint64_t kHoldoutSeed = 2024;
  auto state = std::make_unique<TrainState>();
  state->holdout =
      gnn::generate_dataset(edge::NetworkGenParams::type1(), kHoldout,
                            labeling(), derive_seed(kHoldoutSeed, 10));
  auto model = seeded_chainnet(core::ChainNetConfig{}, derive_seed(options.seed, 11));
  state->initial_loss = gnn::evaluate_loss(*model, state->holdout);
  return state;
}

}  // namespace

Outcome run_train(const Options& options, Tracer& tracer) {
  Outcome outcome;
  SetupTimes setup;
  const auto build_state = [&] { return build(options); };
  auto state = setup.before(build_state);
  const auto params = edge::NetworkGenParams::type1();
  const int steps_per_epoch = (kLabels + kBatch - 1) / kBatch;

  // Timed: whole refresh cycles (label, train, score), each repeating the
  // same seeded work, until the time is spent. Timings are medians over
  // many short units (samples, epochs), which a passing slowdown of the
  // host moves little. Before each cycle after the first, set-up runs
  // afresh (the same held-out set and loss), off the window's clock.
  std::vector<double> label_ms;
  std::vector<double> epoch_rates;  // steps per second of each epoch
  std::vector<double> final_losses;
  double label_seconds = 0.0;
  double off_clock_s = 0.0;
  int cycles = 0;
  const auto t0 = Clock::now();
  const std::int64_t root = tracer.begin("workload.train", -1);
  do {
    if (cycles > 0) {
      const std::int64_t span = tracer.begin("train.setup", root);
      const auto s0 = Clock::now();
      state.reset();
      state = setup.time(build_state);
      off_clock_s += seconds_between(s0, Clock::now());
      tracer.end(span, 1);
    }
    gnn::Dataset data;
    for (int i = 0; i < kLabels; ++i) {
      const std::int64_t span = tracer.begin("gnn.generate_dataset", root);
      const auto l0 = Clock::now();
      gnn::Dataset one = gnn::generate_dataset(
          params, 1, labeling(), derive_seed(options.seed, 1000 + i));
      const double s = seconds_between(l0, Clock::now());
      tracer.end(span, 1);
      label_seconds += s;
      label_ms.push_back(1e3 * s);
      data.samples.push_back(std::move(one.samples.front()));
    }

    auto model = seeded_chainnet(core::ChainNetConfig{}, derive_seed(options.seed, 11));
    gnn::TrainConfig config;
    config.epochs = kEpochs;
    config.batch_size = kBatch;
    config.seed = derive_seed(options.seed, 12);
    const std::int64_t train_span = tracer.begin("gnn.train", root);
    std::int64_t epoch_span = tracer.begin("gnn.epoch", train_span);
    auto epoch_start = Clock::now();
    config.on_epoch = [&](int epoch, double, double) {
      const auto now = Clock::now();
      epoch_rates.push_back(steps_per_epoch / seconds_between(epoch_start,
                                                              now));
      epoch_start = now;
      tracer.end(epoch_span, static_cast<std::uint64_t>(steps_per_epoch));
      if (epoch + 1 < kEpochs) {
        epoch_span = tracer.begin("gnn.epoch", train_span);
      }
    };
    gnn::train(*model, data, nullptr, config);
    tracer.end(train_span,
               static_cast<std::uint64_t>(kEpochs * steps_per_epoch));

    const std::int64_t eval_span = tracer.begin("gnn.evaluate_loss", root);
    final_losses.push_back(gnn::evaluate_loss(*model, state->holdout));
    tracer.end(eval_span, state->holdout.size());
    ++cycles;
  } while (seconds_between(t0, Clock::now()) - off_clock_s < options.seconds);
  const double wall_s = seconds_between(t0, Clock::now()) - off_clock_s;
  tracer.end(root, static_cast<std::uint64_t>(cycles));

  // Correctness: every refresh ends finite and below the untrained loss,
  // and (the work being seeded) every refresh reaches the same loss.
  for (const double loss : final_losses) {
    outcome.check(std::isfinite(loss) && loss < state->initial_loss,
                  "train: final loss " + std::to_string(loss) +
                      " is not finite or not below the initial loss " +
                      std::to_string(state->initial_loss));
    outcome.check(same_bits(loss, final_losses.front()),
                  "train: seeded refreshes reached different losses");
  }

  outcome.attempted = static_cast<std::uint64_t>(cycles);
  outcome.failed = 0;
  outcome.unit_cost = wall_s / cycles;
  outcome.add("setup_s", setup.median_s(), "s");
  outcome.add("peak_rss_mb", peak_rss_mb(), "MB");
  outcome.add("rate_per_s", median(epoch_rates), "1/s");
  outcome.add("p50_ms", quantile(label_ms, 0.50), "ms");

  auto& d = outcome.detail;
  d["cycles"] = support::Json(static_cast<double>(cycles));
  d["labels"] = support::Json(static_cast<double>(label_ms.size()));
  d["labels_per_s"] = support::Json(label_ms.size() / label_seconds);
  d["label_ms_p90"] = support::Json(quantile(label_ms, 0.90));
  d["label_ms_p99"] = support::Json(quantile(label_ms, 0.99));
  d["epochs"] = support::Json(static_cast<double>(epoch_rates.size()));
  d["initial_loss"] = support::Json(state->initial_loss);
  d["final_loss"] = support::Json(final_losses.front());
  d["wall_s"] = support::Json(wall_s);
  d["setups"] = support::Json(static_cast<double>(setup.count()));

  if (tracer.enabled()) {
    const auto spans = tracer.spans();
    // Refresh wall time: the window without the set-ups inside it.
    const double root_s = total_seconds(spans, "workload.train") -
                          total_seconds(spans, "train.setup");
    const double label_s = total_seconds(spans, "gnn.generate_dataset");
    const double train_s = total_seconds(spans, "gnn.train");
    std::vector<double> epoch_step_ms;
    for (const Span& s : spans) {
      if (std::string_view(s.name) == "gnn.epoch") {
        epoch_step_ms.push_back(1e3 * (s.end - s.start) / s.items);
      }
    }
    const double eval_s = total_seconds(spans, "gnn.evaluate_loss");
    outcome.add_layer("queueing.label_ms_per_sample",
                      1e3 * label_s / (cycles * kLabels), "ms");
    outcome.add_layer("queueing.label_share", label_s / root_s, "share");
    outcome.add_layer("gnn.step_ms", median(epoch_step_ms), "ms");
    outcome.add_layer("gnn.train_share", train_s / root_s, "share");
    outcome.add_layer("gnn.eval_loss_ms_per_sample",
                      1e3 * eval_s / (cycles * state->holdout.size()), "ms");
    outcome.add_layer("gnn.final_loss", final_losses.front(), "loss");
    outcome.add_layer(
        "tensor.tape_mb",
        static_cast<double>(tensor::Tape::current().capacity_bytes()) /
            (1024.0 * 1024.0),
        "MB");
  }
  return outcome;
}

}  // namespace perfbench
