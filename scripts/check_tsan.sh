#!/usr/bin/env bash
# Build the concurrent-runtime tests under ThreadSanitizer and run them.
#
# Usage: scripts/check_tsan.sh [extra ctest args...]
#
# Uses the "tsan" CMake preset (build dir: build-tsan). Only the runtime
# and serving tests are built and run -- they exercise every lock and
# atomic in src/runtime and src/serve (accept loop, reader threads,
# flusher, metrics) plus the parallel SA drivers and the batched GNN
# forward's fan-out across pool workers (chainnet_batch_test covers the
# kernels' thread-local packing scratch); building the whole tree under
# TSan would be slow and adds no coverage. registry_test and router_test
# join the gate because they are the concurrency-heavy scale-out paths:
# hot-swap atomicity under a concurrent reader, and the router's health
# thread racing request dispatch and the metrics endpoint. plan_test runs
# here for the PlanCache: concurrent first lookups of one key must produce
# exactly one compile under the shard lock, and replay through a shared
# read-only plan must stay race-free across pool workers. search_test runs
# the population optimizers, whose every step fans a width-K batch across
# the pool while the driver thread owns all the RNG state. kernels_f32_test
# and the two golden suites (f64_golden_test, reduced_golden_test) join
# because the reduced-precision tier adds its own thread-local tile scratch
# and once-per-process ISA/dtype resolution — the same publication patterns
# TSan is here to police. serve_listener_test drives the connection core
# both front-ends share (accept thread, per-connection readers, bounded
# stop) through hostile peers and descriptor exhaustion.
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset tsan
cmake --build build-tsan -j "$(nproc)" \
  --target thread_pool_test eval_cache_test parallel_anneal_test \
  chainnet_batch_test serve_metrics_test serve_loopback_test \
  serve_listener_test registry_test plan_test router_test search_test \
  kernels_f32_test f64_golden_test reduced_golden_test \
  chainnet_lint lint_test

# chainnet_lint is single-threaded, but running lint_test here keeps the
# lock-discipline rules themselves green in the same gate that exercises
# the locks they reason about.
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  ctest --test-dir build-tsan \
  -R '(thread_pool|eval_cache|parallel_anneal|chainnet_batch|serve_metrics|serve_loopback|serve_listener|registry|plan|search|kernels_f32|f64_golden|reduced_golden|lint)_test|^router_test$' \
  --output-on-failure "$@"

echo "TSan check passed."
