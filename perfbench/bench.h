// Shared pieces of the benchmark driver: run options, the in-memory span
// recorder used by traced runs, the timing evaluator decorator, the result
// record every workload fills, and small statistics helpers.
//
// Spans sit only around calls into the library's public API (the
// optimizer, the evaluator interface, client requests, the dataset and
// training entry points); nothing inside the library is instrumented.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/chainnet.h"
#include "edge/model.h"
#include "edge/placement.h"
#include "optim/evaluator.h"
#include "support/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< where a traced run writes its spans
};

/// Seconds between two steady-clock instants.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One closed span. Times are seconds since the tracer's epoch.
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 for a root span
  std::uint64_t items = 0;   ///< work items covered (placements, samples)
  double macs = 0.0;         ///< multiply-accumulates computed for the span
};

/// In-memory span store. Disabled tracers record nothing; enabled ones
/// take one mutex per span (spans wrap whole batches, never single MACs).
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const noexcept { return enabled_; }
  double now() const { return since_epoch(Clock::now()); }
  double since_epoch(Clock::time_point t) const {
    return seconds_between(epoch_, t);
  }
  /// Records a closed span; returns its id (-1 when disabled).
  std::int64_t record(const char* name, double start, double end,
                      std::int64_t parent, std::uint64_t items = 0,
                      double macs = 0.0);
  /// Opens a span now (so children can name it as parent) ...
  std::int64_t begin(const char* name, std::int64_t parent);
  /// ... and closes it now.
  void end(std::int64_t id, std::uint64_t items = 0);
  /// The span new evaluator spans hang under (set by the driving thread
  /// around each optimizer run or phase).
  void set_current_parent(std::int64_t id) noexcept {
    current_parent_.store(id, std::memory_order_relaxed);
  }
  std::int64_t current_parent() const noexcept {
    return current_parent_.load(std::memory_order_relaxed);
  }
  std::vector<Span> spans() const;
  /// Writes every span as one JSON document; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::atomic<std::int64_t> current_parent_{-1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // GUARDED_BY(mutex_)
};

/// Sum of span durations with the given name.
double total_seconds(const std::vector<Span>& spans, const char* name);
/// Length of the union of the named spans' intervals that falls inside the
/// parent-named spans (for "time not covered by children" shares).
double covered_seconds(const std::vector<Span>& spans, const char* child,
                       const char* parent);

/// Multiply-accumulates of one ChainNet forward (Algorithm 2) on a
/// placement, counted from the model shape: encoders, N iterations of the
/// phi_C / phi_F GRUs per execution step, attention (eq. 14-16) on every
/// device shared by several steps, phi_D per used device, and both
/// readout MLPs. Element-wise activations are not counted.
double chainnet_forward_macs(const chainnet::core::ChainNetConfig& config,
                             const chainnet::edge::EdgeSystem& system,
                             const chainnet::edge::Placement& placement);

/// Decorator that records a "core.forward" span around every call into the
/// wrapped evaluator made while the tracer has a current parent span (the
/// measured window). Counts one oracle evaluation per placement so the
/// EvalService accounting is unchanged by wrapping.
class TimingEvaluator final : public chainnet::optim::PlacementEvaluator {
 public:
  TimingEvaluator(std::unique_ptr<chainnet::optim::PlacementEvaluator> inner,
                  Tracer& tracer, chainnet::core::ChainNetConfig shape)
      : inner_(std::move(inner)), tracer_(tracer), shape_(shape) {}

  double total_throughput(const chainnet::edge::EdgeSystem& system,
                          const chainnet::edge::Placement& placement) override;
  void total_throughput_batch(
      const chainnet::edge::EdgeSystem& system,
      std::span<const chainnet::edge::Placement> placements,
      std::span<double> out) override;
  void set_plan_cache(
      std::shared_ptr<chainnet::gnn::PlanCache> cache) override {
    inner_->set_plan_cache(std::move(cache));
  }

 private:
  std::unique_ptr<chainnet::optim::PlacementEvaluator> inner_;
  Tracer& tracer_;
  chainnet::core::ChainNetConfig shape_;
};

/// Totals over every "core.forward" span.
struct ForwardTotals {
  double seconds = 0.0;
  double macs = 0.0;
  std::uint64_t placements = 0;
  std::uint64_t calls = 0;
  double us_per_placement() const { return 1e6 * seconds / placements; }
  double batch_width_mean() const {
    return static_cast<double>(placements) / static_cast<double>(calls);
  }
};
ForwardTotals forward_totals(const std::vector<Span>& spans);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. An untraced run prints `metrics`, a
/// traced run `layer_metrics`.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;  ///< empty when outputs are right
  std::string invalid_reason;  ///< non-empty: the run measured nothing valid
  std::vector<Metric> metrics;        ///< end-to-end set
  std::vector<Metric> layer_metrics;  ///< per-layer set (traced runs only)
  /// Seconds per unit of the workload's headline work; a traced run
  /// divides its own by an untraced run's to report tracing overhead.
  double unit_cost = 0.0;
  chainnet::support::Json detail = chainnet::support::Json::Object{};

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void add_layer(std::string name, double value, std::string unit) {
    layer_metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

/// q-quantile (0..1) of `values` by the nearest-rank rule; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();
/// Table-VII placement problem with `chains` chains on `devices` devices
/// whose chain lengths sum to exactly `fragments`: problems are drawn from
/// the Table-VII law and the first one of that total size is kept. Fixing
/// the total keeps the GNN's work per placement equal across seeds, so
/// per-seed timings compare like with like.
chainnet::edge::EdgeSystem sized_problem(int devices, int chains,
                                         int fragments, std::uint64_t seed);
/// ChainNet with weights drawn from Rng(weights_seed): every call with the
/// same arguments yields bit-identical weights.
std::unique_ptr<chainnet::core::ChainNet> seeded_chainnet(
    const chainnet::core::ChainNetConfig& config, std::uint64_t weights_seed);
/// Deterministic 64-bit seed for stream `tag` of run seed `seed`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);
/// Bitwise equality of two doubles (distinguishes -0.0 and NaN payloads).
bool same_bits(double a, double b);

/// A value built on, and destroyed by, a host thread of its own that
/// lives exactly as long as the value. Model parameters are leaves on the
/// building thread's tape arena, which is freed only when that thread exits
/// (tensor/tape.h); a system set up again and again on one long-lived
/// thread would keep every earlier copy's parameters, and the process's
/// memory would grow with the number of set-ups. serve::ModelVersion hosts
/// its models the same way.
template <typename T>
class Hosted {
 public:
  Hosted() = default;

  /// Runs `make` (returning std::unique_ptr<T>) on a new host thread and
  /// waits for it; rethrows what `make` threw.
  template <typename Fn>
  static Hosted build(Fn make) {
    Hosted hosted;
    auto block = std::make_unique<Block>();
    Block* raw = block.get();
    std::promise<void> built;
    auto ready = built.get_future();
    auto released = raw->release.get_future();
    raw->host = std::thread([raw, make = std::move(make),
                             built = std::move(built),
                             released = std::move(released)]() mutable {
      try {
        raw->value = make();
      } catch (...) {
        built.set_exception(std::current_exception());
        return;
      }
      built.set_value();
      released.wait();
      raw->value.reset();
    });
    try {
      ready.get();
    } catch (...) {
      raw->host.join();
      raw->host = std::thread();
      throw;
    }
    hosted.block_ = std::move(block);
    return hosted;
  }

  T* operator->() const { return block_->value.get(); }
  T& operator*() const { return *block_->value; }
  /// Destroys the value on its host thread and joins the thread.
  void reset() { block_.reset(); }

 private:
  struct Block {
    std::unique_ptr<T> value;
    std::promise<void> release;
    std::thread host;

    ~Block() {
      if (!host.joinable()) return;
      release.set_value();
      host.join();
    }
  };
  std::unique_ptr<Block> block_;
};

/// Set-up timing. A workload's set-up is the system it measures coming up
/// (models, pools, services, servers, plan compiles), never the
/// generation of its inputs. Each workload sets its system up several
/// times, and `setup_s` is the median: one set-up alone is too short to
/// time steadily. Set-ups made in one burst all fall on one stretch of the
/// host, so workloads also set up between stretches of the measured window
/// (off its clock) or after it. Every set-up is hosted (see Hosted), so
/// repeating it costs no memory.
class SetupTimes {
 public:
  /// Set-ups timed back to back before the window unless a workload says.
  static constexpr int kBefore = 3;

  /// Times one set-up, `make` returning std::unique_ptr<T>, on a host
  /// thread and returns the hosted result.
  template <typename Fn>
  auto time(const Fn& make) {
    using T = typename decltype(make())::element_type;
    const auto t0 = Clock::now();
    auto hosted = Hosted<T>::build(make);
    times_.push_back(seconds_between(t0, Clock::now()));
    return hosted;
  }

  /// Times `repeats` set-ups back to back and returns the last.
  template <typename Fn>
  auto before(const Fn& make, int repeats = kBefore) {
    auto kept = time(make);
    for (int r = 1; r < repeats; ++r) {
      kept.reset();  // release the previous instance before building the next
      kept = time(make);
    }
    return kept;
  }

  /// Times `repeats` set-ups back to back, releasing each at once.
  template <typename Fn>
  void repeat(const Fn& make, int repeats) {
    for (int r = 0; r < repeats; ++r) time(make);
  }

  double median_s() const { return median(times_); }
  std::size_t count() const { return times_.size(); }

 private:
  std::vector<double> times_;
};

Outcome run_search(const Options& options, Tracer& tracer);
Outcome run_serve(const Options& options, Tracer& tracer);
Outcome run_train(const Options& options, Tracer& tracer);

}  // namespace perfbench
