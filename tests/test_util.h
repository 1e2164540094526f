// Shared helpers for the test suite: finite-difference gradient checking of
// autograd graphs and small factory functions for edge systems.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "edge/model.h"
#include "edge/placement.h"
#include "edge/problem.h"
#include "support/rng.h"
#include "tensor/tape.h"
#include "tensor/variable.h"

namespace chainnet::testing {

/// Checks d(loss)/d(leaf) for every element of `leaf` against central
/// finite differences of `rebuild`, which must rebuild the scalar loss from
/// current leaf values. `leaf` must require grad and already carry the
/// analytic gradients of one backward() call.
inline void expect_gradient_matches(
    tensor::Var leaf, const std::function<double()>& rebuild,
    double eps = 1e-6, double tol = 1e-5) {
  // Each rebuild() constructs a throwaway loss graph; frame it so the sweep
  // (2 evaluations per element) reuses one tape region instead of growing
  // the arena for thousands of graphs.
  const auto framed_rebuild = [&rebuild] {
    const tensor::Tape::Frame frame(tensor::Tape::current());
    return rebuild();
  };
  for (std::size_t i = 0; i < leaf.size(); ++i) {
    const double original = leaf.value()[i];
    leaf.mutable_value()[i] = original + eps;
    const double up = framed_rebuild();
    leaf.mutable_value()[i] = original - eps;
    const double down = framed_rebuild();
    leaf.mutable_value()[i] = original;
    const double numeric = (up - down) / (2.0 * eps);
    const double analytic = leaf.grad()[i];
    const double scale = std::max({1.0, std::abs(numeric), std::abs(analytic)});
    EXPECT_NEAR(analytic, numeric, tol * scale)
        << "element " << i << " of leaf";
  }
}

/// A small fixed system: 2 chains (3 + 2 fragments), 4 devices.
inline edge::EdgeSystem small_system() {
  edge::EdgeSystem sys;
  sys.devices = {
      {"d0", 50.0, 1.0},
      {"d1", 50.0, 1.0},
      {"d2", 40.0, 2.0},
      {"d3", 60.0, 0.5},
  };
  edge::ServiceChainSpec c0;
  c0.name = "c0";
  c0.arrival_rate = 0.8;
  c0.fragments = {{1.0, 0.5}, {1.0, 0.7}, {1.0, 0.3}};
  edge::ServiceChainSpec c1;
  c1.name = "c1";
  c1.arrival_rate = 0.4;
  c1.fragments = {{1.0, 0.2}, {1.0, 0.9}};
  sys.chains = {c0, c1};
  return sys;
}

/// A valid placement for small_system() where device 1 is shared by both
/// chains (exercises the multi-execution-step attention path).
inline edge::Placement small_placement() {
  return edge::Placement(std::vector<std::vector<int>>{{0, 1, 2}, {1, 3}});
}

/// A hand-built system with ragged chains of 1, 1, 2, 7 and 13 fragments
/// on 16 devices: the batched chain pass runs waves of 5, 3, 2 (x5) and
/// 1 (x6) chains, so every wave width and the single-step-chain aliasing
/// case occur in one forward.
inline edge::EdgeSystem ragged_system() {
  edge::EdgeSystem sys;
  for (int k = 0; k < 16; ++k) {
    sys.devices.push_back(
        {"d" + std::to_string(k), 100.0, 0.5 + 0.25 * (k % 5)});
  }
  const int lengths[] = {1, 1, 2, 7, 13};
  for (int i = 0; i < 5; ++i) {
    edge::ServiceChainSpec chain;
    chain.name = "c" + std::to_string(i);
    chain.arrival_rate = 0.2 + 0.1 * i;
    for (int j = 0; j < lengths[i]; ++j) {
      chain.fragments.push_back({1.0 + 0.5 * (j % 3), 0.2 + 0.1 * (j % 4)});
    }
    sys.chains.push_back(chain);
  }
  return sys;
}

/// `count` random placements of `system`, drawn in order from Rng(seed).
inline std::vector<edge::Placement> random_placements(
    const edge::EdgeSystem& system, int count, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<edge::Placement> placements;
  placements.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    placements.push_back(edge::random_placement(system, rng));
  }
  return placements;
}

}  // namespace chainnet::testing
