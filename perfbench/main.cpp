// Benchmark driver entry point:
//
//   chainnet_perfbench --workload search|serve|train --seed N --seconds S
//                      --trace 0|1 [--trace-out spans.json]
//                      [--provenance key=value]...
//
// Generates every input from the seed before timing, runs the workload,
// checks its outputs and prints, as the last line of standard output, one
// JSON object {correct, attempted, failed, metrics}. Untraced runs report
// the end-to-end metrics. A traced run first measures the workload
// untraced for half the time, then traced for the other half; it reports
// the per-layer metrics of the traced half plus the tracing overhead, and
// writes the traced half's spans to --trace-out.
//
// A line before the result carries the run's provenance and details. Exit
// status: 0 with a result line; 1 when a correctness check failed (the
// result line then says correct=false); 2 on bad arguments, an invalid
// run or an error, with no result line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "support/json.h"
#include "tensor/dtype.h"
#include "tensor/kernels.h"

namespace {

using chainnet::support::Json;
using namespace perfbench;

/// Every end-to-end metric, in BENCHMARK.json order.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"rate_per_s", "1/s"},
    {"p50_ms", "ms"},
};

/// Every per-layer metric. A workload that does not exercise a layer
/// reports 0 for it (the layer did no work on that workload).
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"core.forward_us_per_placement", "us"},
    {"core.batch_width_mean", "count"},
    {"tensor.gmac_per_s", "GMAC/s"},
    {"runtime.worker_busy_share", "share"},
    {"search.self_share", "share"},
    {"search.accept_share", "share"},
    {"gnn.plan_compiles", "count"},
    {"serve.router_ms_p50", "ms"},
    {"serve.backend_ms_p50", "ms"},
    {"serve.backend_ms_p99", "ms"},
    {"serve.router_self_share", "share"},
    {"serve.backend_self_share", "share"},
    {"serve.forward_share", "share"},
    {"runtime.cache_hit_share", "share"},
    {"serve.shed_share", "share"},
    {"serve.generator_lag_ms_max", "ms"},
    {"queueing.label_ms_per_sample", "ms"},
    {"queueing.label_share", "share"},
    {"gnn.step_ms", "ms"},
    {"gnn.train_share", "share"},
    {"gnn.eval_loss_ms_per_sample", "ms"},
    {"gnn.final_loss", "loss"},
    {"tensor.tape_mb", "MB"},
    {"trace.overhead_share", "share"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "chainnet_perfbench: %s\nusage: chainnet_perfbench --workload "
               "search|serve|train --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH] [--provenance KEY=VALUE]...\n",
               why);
  return 2;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

Outcome run_workload(const Options& options, Tracer& tracer) {
  if (options.workload == "search") return run_search(options, tracer);
  if (options.workload == "serve") return run_serve(options, tracer);
  return run_train(options, tracer);
}

Json metrics_json(const std::vector<std::pair<const char*, const char*>>& spec,
                  const std::vector<Metric>& measured) {
  std::map<std::string, double> values;
  for (const Metric& m : measured) values[m.name] = m.value;
  Json out;
  for (const auto& [name, unit] : spec) {
    Json entry;
    const auto it = values.find(name);
    entry["value"] = Json(it == values.end() ? 0.0 : it->second);
    entry["unit"] = Json(unit);
    out[name] = std::move(entry);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  Json provenance;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = true;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
        have_trace = true;
      } else if (arg == "--trace-out") {
        options.trace_out = value;
      } else if (arg == "--provenance") {
        const auto eq = value.find('=');
        if (eq == std::string::npos) return usage("--provenance needs K=V");
        provenance[value.substr(0, eq)] = Json(value.substr(eq + 1));
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (options.workload != "search" && options.workload != "serve" &&
      options.workload != "train") {
    return usage("--workload must be search, serve or train");
  }
  if (!have_seed || !have_seconds || !have_trace || options.seconds <= 0.0) {
    return usage("--seed, --seconds (> 0) and --trace are required");
  }

  provenance["compiler"] = Json(CHAINNET_PERFBENCH_COMPILER);
  provenance["flags"] = Json(CHAINNET_PERFBENCH_FLAGS);
  provenance["kernel_isa"] = Json(chainnet::tensor::kernels::isa());
  // Every workload's models use the default ChainNetConfig tier.
  provenance["inference_dtype"] =
      Json(chainnet::tensor::dtype_name(chainnet::core::ChainNetConfig{}.dtype));
  provenance["cpu_model"] = Json(cpu_model());
  provenance["nproc"] =
      Json(static_cast<double>(std::thread::hardware_concurrency()));
  provenance["seed"] = Json(static_cast<double>(options.seed));
  provenance["workload"] = Json(options.workload);
  provenance["seconds"] = Json(options.seconds);
  provenance["trace"] = Json(options.trace);

  Outcome outcome;
  try {
    if (!options.trace) {
      Tracer off(false);
      outcome = run_workload(options, off);
    } else {
      Options half = options;
      half.seconds = options.seconds / 2.0;
      Tracer off(false);
      const Outcome plain = run_workload(half, off);
      if (!plain.invalid_reason.empty()) {
        outcome = plain;
      } else {
        Tracer on(true);
        outcome = run_workload(half, on);
        outcome.add_layer("trace.overhead_share",
                          outcome.unit_cost / plain.unit_cost - 1.0, "share");
        outcome.attempted += plain.attempted;
        outcome.failed += plain.failed;
        outcome.check_failures.insert(outcome.check_failures.end(),
                                      plain.check_failures.begin(),
                                      plain.check_failures.end());
        if (!options.trace_out.empty() && !on.write(options.trace_out)) {
          std::fprintf(stderr, "cannot write spans to %s\n",
                       options.trace_out.c_str());
          return 2;
        }
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chainnet_perfbench: %s\n", e.what());
    return 2;
  }
  if (!outcome.invalid_reason.empty()) {
    std::fprintf(stderr, "chainnet_perfbench: invalid run: %s\n",
                 outcome.invalid_reason.c_str());
    return 2;
  }
  for (const auto& failure : outcome.check_failures) {
    std::fprintf(stderr, "correctness check failed: %s\n", failure.c_str());
  }
  const bool correct = outcome.check_failures.empty();

  Json info;
  info["provenance"] = std::move(provenance);
  info["succeeded"] = Json(static_cast<double>(outcome.attempted -
                                               outcome.failed));
  info["detail"] = outcome.detail;
  std::printf("%s\n", info.dump().c_str());

  Json result;
  result["correct"] = Json(correct);
  result["attempted"] = Json(static_cast<double>(outcome.attempted));
  result["failed"] = Json(static_cast<double>(outcome.failed));
  result["metrics"] = options.trace ? metrics_json(kPerLayer,
                                                   outcome.layer_metrics)
                                    : metrics_json(kEndToEnd, outcome.metrics);
  std::printf("%s\n", result.dump().c_str());
  return correct ? 0 : 1;
}
