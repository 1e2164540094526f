#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "edge/problem.h"
#include "support/rng.h"

namespace perfbench {

using chainnet::support::Json;

std::int64_t Tracer::record(const char* name, double start, double end,
                            std::int64_t parent, std::uint64_t items,
                            double macs) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto id = static_cast<std::int64_t>(spans_.size());
  spans_.push_back({name, start, end, id, parent, items, macs});
  return id;
}

std::int64_t Tracer::begin(const char* name, std::int64_t parent) {
  const double t = now();
  return record(name, t, t, parent);
}

void Tracer::end(std::int64_t id, std::uint64_t items) {
  if (!enabled_ || id < 0) return;
  const double t = now();
  const std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end = t;
  span.items = items;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::write(const std::string& path) const {
  Json::Array rows;
  for (const Span& s : spans()) {
    Json row;
    row["name"] = Json(s.name);
    row["id"] = Json(static_cast<double>(s.id));
    row["parent"] = Json(static_cast<double>(s.parent));
    row["start_s"] = Json(s.start);
    row["end_s"] = Json(s.end);
    row["items"] = Json(static_cast<double>(s.items));
    if (s.macs > 0.0) row["macs"] = Json(s.macs);
    rows.push_back(std::move(row));
  }
  Json doc;
  doc["spans"] = Json(std::move(rows));
  std::ofstream out(path);
  out << doc.dump() << "\n";
  return static_cast<bool>(out);
}

double total_seconds(const std::vector<Span>& spans, const char* name) {
  double total = 0.0;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) total += s.end - s.start;
  }
  return total;
}

double covered_seconds(const std::vector<Span>& spans, const char* child,
                       const char* parent) {
  std::vector<std::pair<double, double>> parents;
  std::vector<std::pair<double, double>> children;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, parent) == 0) parents.emplace_back(s.start, s.end);
    if (std::strcmp(s.name, child) == 0) children.emplace_back(s.start, s.end);
  }
  std::sort(children.begin(), children.end());
  // Merge overlapping children (parallel workers), then clip to parents.
  std::vector<std::pair<double, double>> merged;
  for (const auto& c : children) {
    if (!merged.empty() && c.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, c.second);
    } else {
      merged.push_back(c);
    }
  }
  double covered = 0.0;
  for (const auto& p : parents) {
    for (const auto& m : merged) {
      const double lo = std::max(p.first, m.first);
      const double hi = std::min(p.second, m.second);
      if (hi > lo) covered += hi - lo;
    }
  }
  return covered;
}

double chainnet_forward_macs(const chainnet::core::ChainNetConfig& config,
                             const chainnet::edge::EdgeSystem& system,
                             const chainnet::edge::Placement& placement) {
  const double h = config.hidden;
  const double gru = 3.0 * (2.0 * h * h + h * h);  // input 2H, hidden H
  std::vector<int> steps_on(static_cast<std::size_t>(system.num_devices()), 0);
  double steps = 0.0;
  for (const auto& chain : placement.assignment()) {
    for (const int device : chain) {
      ++steps_on[static_cast<std::size_t>(device)];
      steps += 1.0;
    }
  }
  double device_pass = 0.0;
  double used = 0.0;
  for (const int k : steps_on) {
    if (k == 0) continue;
    used += 1.0;
    device_pass += gru;
    if (k > 1 && config.attention_aggregation) {
      // Per head and message: W_att [H x 3H], alpha [H], W_msg [2H x 2H].
      device_pass += config.attention_heads * k * (3.0 * h * h + h +
                                                   4.0 * h * h);
    }
  }
  const double chains = system.num_chains();
  const double encoders =
      chains * h + steps * 3.0 * h + used * h;  // feature dims 1, 3, 1
  const double readout = 2.0 * chains * (h * h + h);
  return encoders + config.iterations * (2.0 * gru * steps + device_pass) +
         readout;
}

double TimingEvaluator::total_throughput(
    const chainnet::edge::EdgeSystem& system,
    const chainnet::edge::Placement& placement) {
  double value = 0.0;
  total_throughput_batch(system, {&placement, 1}, {&value, 1});
  return value;
}

void TimingEvaluator::total_throughput_batch(
    const chainnet::edge::EdgeSystem& system,
    std::span<const chainnet::edge::Placement> placements,
    std::span<double> out) {
  for (std::size_t i = 0; i < placements.size(); ++i) record_evaluation();
  const std::int64_t parent = tracer_.current_parent();
  const double start = tracer_.now();
  if (placements.size() == 1) {
    out[0] = inner_->total_throughput(system, placements[0]);
  } else {
    inner_->total_throughput_batch(system, placements, out);
  }
  const double end = tracer_.now();
  if (parent < 0) return;  // set-up and checks are not measured
  double macs = 0.0;
  for (const auto& p : placements) {
    macs += chainnet_forward_macs(shape_, system, p);
  }
  tracer_.record("core.forward", start, end, parent, placements.size(), macs);
}

ForwardTotals forward_totals(const std::vector<Span>& spans) {
  ForwardTotals t;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "core.forward") != 0) continue;
    t.seconds += s.end - s.start;
    t.macs += s.macs;
    t.placements += s.items;
    ++t.calls;
  }
  return t;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

chainnet::edge::EdgeSystem sized_problem(int devices, int chains,
                                         int fragments, std::uint64_t seed) {
  chainnet::support::Rng rng(seed);
  auto params = chainnet::edge::PlacementProblemParams::paper(devices);
  params.num_chains = chains;
  for (int attempt = 0; attempt < 100000; ++attempt) {
    auto system = chainnet::edge::generate_placement_problem(params, rng);
    if (system.total_fragments() == fragments) return system;
  }
  throw std::runtime_error("no Table-VII problem of the requested size");
}

std::unique_ptr<chainnet::core::ChainNet> seeded_chainnet(
    const chainnet::core::ChainNetConfig& config, std::uint64_t weights_seed) {
  chainnet::support::Rng rng(weights_seed);
  return std::make_unique<chainnet::core::ChainNet>(config, rng);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  // splitmix64 finalizer over (seed, tag).
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace perfbench
