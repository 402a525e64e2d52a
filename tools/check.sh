#!/usr/bin/env bash
# Full check: configure + build + ctest for the normal tree, then again
# with COOPNET_SANITIZE=ON (ASan + UBSan) in a separate build directory.
# --tsan instead runs the concurrency suites under ThreadSanitizer
# (COOPNET_TSAN=ON, a third tree: ASan and TSan cannot share a binary);
# CI gives it a dedicated job so the two sanitizer legs run in parallel.
#
#   tools/check.sh             # normal + ASan/UBSan passes
#   tools/check.sh --fast      # normal pass only
#   tools/check.sh --tsan      # TSan pass only (concurrency suites)
#   CTEST_ARGS="-R Faults" tools/check.sh
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 4)
CTEST_ARGS=${CTEST_ARGS:-}

run_pass() {
  local dir=$1
  shift
  echo "=== configure ${dir} ($*) ==="
  cmake -B "${dir}" -S . "$@"
  echo "=== build ${dir} ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== ctest ${dir} ==="
  # shellcheck disable=SC2086
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" ${CTEST_ARGS}
}

# TSan over exactly the code that runs multi-threaded: the cell fan-out
# (exp::for_each_cell) and the parallel experiment runner (--jobs).
# Targeted build + -R filter keeps the pass minutes, not hours; the
# unbuilt suites surface as *_NOT_BUILT entries that the filter excludes.
tsan_pass() {
  local dir=build-tsan
  echo "=== configure ${dir} (-DCOOPNET_TSAN=ON) ==="
  cmake -B "${dir}" -S . -DCOOPNET_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
  echo "=== build ${dir} (concurrency suites) ==="
  cmake --build "${dir}" -j "${JOBS}" --target \
    test_for_each_cell test_parallel_determinism
  echo "=== ctest ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
    -R 'ForEachCell|ParallelDeterminism'
}

# The fluid backend's CLI round trip at the N = 10^6 extrapolation cell
# must stay under one second wall-clock (the crossval suite gates the
# in-process integration at the same bar; this covers flag parsing +
# serialization on top). The ctest pass above already ran the full
# cross-validation grid (test_fluid_crossval).
fluid_smoke() {
  local dir=$1
  echo "=== fluid smoke: N = 10^6 CLI round trip under 1 s ==="
  local start end ms
  start=$(date +%s%N)
  "${dir}/tools/coopnet_run" --backend fluid --algo BitTorrent \
    --n 1000000 --file-mb 8 --piece-kb 128 --max-time 4000 --seed 415 \
    > /dev/null
  end=$(date +%s%N)
  ms=$(( (end - start) / 1000000 ))
  echo "fluid N=1e6 CLI round trip: ${ms} ms"
  if (( ms >= 1000 )); then
    echo "FAIL: fluid extrapolation took ${ms} ms (budget 1000 ms)" >&2
    exit 1
  fi
}

if [[ "${1:-}" == "--tsan" ]]; then
  tsan_pass
  echo "TSan checks passed."
  exit 0
fi

run_pass build
fluid_smoke build

if [[ "${1:-}" != "--fast" ]]; then
  run_pass build-asan -DCOOPNET_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
fi

echo "All checks passed."
