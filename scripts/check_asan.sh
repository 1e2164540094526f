#!/usr/bin/env bash
# Build the tensor/gnn test suites under AddressSanitizer + UBSan and run
# them.
#
# Usage: scripts/check_asan.sh [extra ctest args...]
#
# Uses the "asan-ubsan" CMake preset (build dir: build-asan). The filter
# covers the arena-tape substrate and everything layered on it — autodiff
# ops, modules, optimizers, serialization, ChainNet and the baselines,
# gradient checks, the fast-inference equivalence suite, and the trainer —
# the code where a bump-allocator bug (stale buffer, out-of-bounds scatter,
# use-after-release) would surface. It also covers the untrusted-input
# paths (JSON parser, serve protocol + loopback hostile requests), where
# UBSan catches things like float-to-int casts of client-chosen values.
# plan_test joins because plan replay indexes a single arena-planned
# scratch buffer with precomputed offsets — exactly the kind of code where
# an off-by-one region size becomes an out-of-bounds write. kernels_f32_test
# joins for the reduced-precision tier (f32 packing caches + tile scratch
# share the f64 tier's buffer-reuse idioms), and f64_golden_test and
# reduced_golden_test keep the f64 and f32/bf16 goldens honest under
# instrumentation. serve_listener_test feeds the frame reader partial
# prefixes, partial payloads and mid-frame half-closes.
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset asan-ubsan
cmake --build build-asan -j "$(nproc)" \
  --target autograd_test tape_test nn_test optimizer_test serialize_test \
  baselines_test baseline_gradcheck_test chainnet_test \
  chainnet_gradcheck_test chainnet_inference_test chainnet_batch_test \
  kernels_test kernels_f32_test f64_golden_test reduced_golden_test \
  graph_workspace_test \
  plan_test trainer_test \
  invariance_test json_test serve_protocol_test serve_loopback_test \
  serve_listener_test \
  consistent_hash_test registry_test router_test search_test \
  chainnet_lint lint_test

# The linter recurses over directories and slices raw bytes out of source
# files, so it gets an ASan pass over both src/ and the fixture corpus
# (lint_test drives it over every fixture, including the failing ones).
ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
  ctest --test-dir build-asan \
  -R '(autograd|tape|nn|optimizer|serialize|baselines|baseline_gradcheck|chainnet|chainnet_gradcheck|chainnet_inference|chainnet_batch|kernels|kernels_f32|f64_golden|reduced_golden|graph_workspace|plan|trainer|invariance|json|serve_protocol|serve_loopback|serve_listener|consistent_hash|registry|router|search|lint)_test' \
  --output-on-failure "$@"

echo "ASan+UBSan check passed."
