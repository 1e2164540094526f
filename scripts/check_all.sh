#!/usr/bin/env bash
# The full pre-merge gate: tier-0 static analysis (chainnet_lint), tier-1
# build + tests, a plan-parity pass of the inference suites under
# CHAINNET_INTERPRET=1, a bench_infer parity smoke, a perfbench serve
# smoke, a bench_search smoke, then both sanitizer suites
# (scripts/check_asan.sh, scripts/check_tsan.sh).
#
# Usage: scripts/check_all.sh [extra ctest args...]
#
# Extra arguments are forwarded to every ctest invocation. Each stage uses
# its own build directory (build, build-asan, build-tsan), so incremental
# reruns are cheap. The tier-1 tree is configured with warnings-as-errors
# (CHAINNET_WERROR=ON); the option sticks in build/'s cache until turned
# off explicitly with -DCHAINNET_WERROR=OFF.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== tier 0: static analysis (chainnet_lint) =="
# The linter is built and run before anything else: rule violations in src/
# should fail the gate in seconds, not after a full compile. check_lint.sh
# runs the analyzer over src/ + tools/lint under a wall-clock budget, then
# the lint test suites (fixture corpus, analyzer unit tests, JSON golden).
scripts/check_lint.sh "$@"

echo
echo "== tier 1: build + ctest (build/) =="
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)" "$@"

echo
echo "== plan parity: interpreted reference executor (CHAINNET_INTERPRET=1) =="
# forward_values[_batch] replay compiled plans; plan_test (tier 1 above)
# pins replay == interpreted bit for bit on every ablation and width. This
# stage re-runs the numeric inference suites with CHAINNET_INTERPRET=1 so
# the interpreted walk — the reference the plans are compiled from and the
# escape hatch operators reach for — itself stays a complete executor that
# matches forward() and the batch/scalar bitwise pins. plan_test is NOT in
# this filter: its cache-counter assertions assume plan dispatch.
CHAINNET_INTERPRET=1 ctest --test-dir build \
  -R '(chainnet_inference|chainnet_batch)_test' --output-on-failure "$@"

echo
echo "== bench_infer smoke (parity + rank-fidelity gates) =="
# bench_infer refuses to emit numbers unless the fused + batched paths
# reproduce the reference forward bit-for-bit and plan replay reproduces
# the interpreted walk, so a short run doubles as a parity check on the
# exact host ISA tier in use. The same run evaluates the reduced-precision
# tiers (f32, bf16 storage) against the f64 oracle: pairwise rank agreement
# over sampled neighbor sets plus an SA objective-at-budget comparison,
# exiting nonzero if either falls past the committed thresholds — so a
# kernel or packing change that silently reorders placements fails here,
# not in production search.
CHAINNET_INFER_SECONDS=0.05 \
CHAINNET_INFER_OUT=build/BENCH_infer_smoke.json \
  ./build/bench/bench_infer

echo
echo "== perfbench smoke (serve workload, frozen driver) =="
# perfbench/ builds src/ standalone against its own frozen driver sources,
# so a library API change that breaks them (PlanShape's fields,
# PlanCache::lookup_or_compile and stats(), set_plan_cache, ...) fails
# here rather than at benchmark time. run.py prints its build output and
# the driver's diagnostics on stderr, which stays in this log; the stage
# fails unless the last stdout line is a result with "correct": true and
# no failed operations.
perfbench_line=$(python3 perfbench/run.py --workload serve --seed 1 \
  --seconds 4 --trace 0 | tail -n 1)
echo "$perfbench_line"
PERFBENCH_LINE="$perfbench_line" python3 - <<'PY'
import json, os, sys
try:
    result = json.loads(os.environ["PERFBENCH_LINE"])
except ValueError:
    sys.exit("perfbench smoke: last line is not a result object")
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit("perfbench smoke: correct=%r failed=%r"
             % (result.get("correct"), result.get("failed")))
PY

echo
echo "== bench_search smoke (population-search harness) =="
# A tiny fixed-wall-clock run of the src/search/ harness on the
# training-free approximation oracle: exercises every optimizer end to end
# (batch feeding, plan discipline, diagnostics) without training a model.
CHAINNET_SEARCH_SECONDS=0.1 \
CHAINNET_SEARCH_ORACLE=approx \
CHAINNET_SEARCH_PROBLEMS=1 \
CHAINNET_SEARCH_OUT=build/BENCH_search_smoke.json \
  ./build/bench/bench_search

echo
echo "== tier 2: AddressSanitizer + UBSan =="
scripts/check_asan.sh "$@"

echo
echo "== tier 2: ThreadSanitizer =="
scripts/check_tsan.sh "$@"

echo
echo "All checks passed."
