#!/usr/bin/env bash
# Smoke-runs every bench binary at tiny scale so the bench targets cannot
# silently rot: each must exit 0 and produce output. Not a performance
# gate -- CI runs this once per push (see .github/workflows/ci.yml).
#
#   tools/ci_bench_smoke.sh [build-dir]    # default: build
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${1:-build}
BENCH="${BUILD_DIR}/bench"
TOOLS="${BUILD_DIR}/tools"

if [[ ! -d "${BENCH}" ]]; then
  echo "error: ${BENCH} not found (build first: cmake --build ${BUILD_DIR})" >&2
  exit 1
fi

JOBS=$(nproc 2>/dev/null || echo 2)
fail=0

run() {
  local name=$1
  shift
  echo "=== smoke: ${name} $* ==="
  local out
  if ! out=$("$@" 2>&1); then
    echo "${out}"
    echo "FAILED: ${name}" >&2
    fail=1
    return
  fi
  if [[ -z "${out}" ]]; then
    echo "FAILED: ${name} produced no output" >&2
    fail=1
    return
  fi
  # Show the tail so the CI log proves the artifact rendered.
  echo "${out}" | tail -n 3
}

# Analytic artifacts (no simulation; already fast at defaults).
run fig1_classification   "${BENCH}/fig1_classification"
run fig2_ideal_ranking    "${BENCH}/fig2_ideal_ranking"
run fig3_piece_availability "${BENCH}/fig3_piece_availability"
run table2_bootstrap      "${BENCH}/table2_bootstrap"

# Simulation-backed artifacts, shrunk hard: tiny swarms, short horizons,
# all hardware threads.
run table1_equilibrium "${BENCH}/table1_equilibrium" --n 60 --jobs "${JOBS}"
run table3_freeriding  "${BENCH}/table3_freeriding" --n 120 --jobs "${JOBS}"
SMALL=(--scale small --n 30 --file-mb 2 --max-time 600 --jobs "${JOBS}")
run fig4_compliant  "${BENCH}/fig4_compliant"  "${SMALL[@]}"
run fig5_freeriders "${BENCH}/fig5_freeriders" "${SMALL[@]}"
run fig6_largeview  "${BENCH}/fig6_largeview"  "${SMALL[@]}"
run fig_churn_sweep "${BENCH}/fig_churn_sweep" "${SMALL[@]}"
run ext_propshare   "${BENCH}/ext_propshare"   "${SMALL[@]}"
run ext_bittyrant   "${BENCH}/ext_bittyrant"   "${SMALL[@]}"
run ext_eigentrust  "${BENCH}/ext_eigentrust"  "${SMALL[@]}"

# Artifacts must not depend on --jobs: the same toy sweep at --jobs 1 and
# --jobs ${JOBS} has to write byte-identical --json-out files.
mkdir -p "${BUILD_DIR}/bench-smoke"
TOY=(--scale small --n 30 --file-mb 2 --max-time 600)
for name in fig4_compliant fig_churn_sweep; do
  for j in 1 "${JOBS}"; do
    run "${name}_jobs${j}" "${BENCH}/${name}" "${TOY[@]}" --jobs "${j}" \
      --json-out "${BUILD_DIR}/bench-smoke/${name}.jobs${j}.json"
  done
  echo "=== smoke: ${name} --json-out is --jobs invariant ==="
  if ! cmp "${BUILD_DIR}/bench-smoke/${name}.jobs1.json" \
      "${BUILD_DIR}/bench-smoke/${name}.jobs${JOBS}.json"; then
    echo "FAILED: ${name} artifacts differ between --jobs 1 and" \
      "--jobs ${JOBS}" >&2
    fail=1
  fi
done

# The scenario CLI: replicated + parallel + JSON in one pass.
run coopnet_run "${TOOLS}/coopnet_run" --algo BitTorrent --n 30 --file-mb 2 \
  --reps 3 --jobs "${JOBS}" --json
# A config field with no flag before the config schema: T-Chain with at
# most two downloads in flight per leecher.
run coopnet_run_max_incoming "${TOOLS}/coopnet_run" --algo T-Chain --n 30 \
  --file-mb 2 --max-incoming 2 --json

# google-benchmark guards: one cheap kernel each, minimal measuring time.
run micro_engine "${BENCH}/micro_engine" \
  --benchmark_filter='BM_QNeedsKernel' --benchmark_min_time=0.01
run micro_swarm "${BENCH}/micro_swarm" --max-n 100 \
  --json-out "${BUILD_DIR}/bench-smoke/BENCH_swarm.json"
# The fluid backend: full record set (every cell is sub-second, including
# the N = 10^6 extrapolation cell), so the BENCH_fluid.json artifact the
# gate consumes is complete even in the smoke pass.
run micro_fluid "${BENCH}/micro_fluid" \
  --json-out "${BUILD_DIR}/bench-smoke/BENCH_fluid.json"
# Sim-vs-fluid overlay at toy scale: keeps the event sweep plus fluid
# prediction path alive without paying for the mid-scale default.
run fig4_fluid_overlay "${BENCH}/fig4_fluid_overlay" "${SMALL[@]}"
# Tiny scale-leg pass: proves the --peers path (and its BENCH_*.json
# artifact) cannot rot without waiting for the dedicated scale-smoke job.
run micro_swarm_scale "${BENCH}/micro_swarm" --peers 500 --horizon 60 \
  --json-out "${BUILD_DIR}/bench-smoke/BENCH_swarm_scale.json"
run micro_pool "${BENCH}/micro_pool" \
  --benchmark_filter='BM_CellSeed|BM_ReplicatedSweep/2$' \
  --benchmark_min_time=0.01

if [[ ${fail} -ne 0 ]]; then
  echo "bench smoke: FAILURES (see above)" >&2
  exit 1
fi
echo "bench smoke: all binaries OK."
