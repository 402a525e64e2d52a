#!/usr/bin/env bash
# Perf-regression gate over the machine-readable bench artifacts.
#
# Re-runs the fixed-workload measurements (micro_engine/micro_swarm
# --json-out) and diffs them against the committed baselines in
# bench/baselines/. Three kinds of metric:
#
#   * machine-normalized: `speedup_vs_reference` (the indexed-heap engine
#     vs the seed priority_queue engine, measured in the same process) and
#     the per-workload event counts (which are deterministic and must be
#     byte-equal). These gate in every mode.
#   * absolute events/sec: meaningful only on hardware comparable to where
#     the baseline was captured. Gated in `full` mode (local dev boxes);
#     demoted to warnings in `ratio` mode (CI runners of unknown speed).
#   * peak RSS: the document-level peak_rss_kb. Memory for a fixed
#     deterministic workload is near machine-independent, so an INCREASE
#     gates in every mode -- but only when the fresh run measured exactly
#     the baseline's record set (a --max-n-truncated smoke run peaks far
#     below the full-sweep baseline, so the comparison would be noise).
#
# Thresholds: FAIL on a >20% regression, WARN on >5%.
#
#   tools/ci_bench_gate.sh [build-dir] [mode] [legs]
#     mode: full (default) | ratio
#     legs: smoke (default; micro_engine + micro_swarm --max-n 1000)
#           scale (micro_swarm --peers 100000)
#           all   (both)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${1:-build}
MODE=${2:-full}
LEGS=${3:-smoke}
BASELINES=bench/baselines
OUT="${BUILD_DIR}/bench-gate"
mkdir -p "${OUT}"

if [[ ! -x "${BUILD_DIR}/bench/micro_engine" ||
      ! -x "${BUILD_DIR}/bench/micro_swarm" ]]; then
  echo "error: bench binaries missing (build first: cmake --build ${BUILD_DIR})" >&2
  exit 1
fi

TOOLS=()
echo "=== bench gate: measuring (mode=${MODE}, legs=${LEGS}) ==="
if [[ "${LEGS}" == "smoke" || "${LEGS}" == "all" ]]; then
  "${BUILD_DIR}/bench/micro_engine" --json-out "${OUT}/BENCH_engine.json"
  # N=1000 keeps the gate under a minute; the committed baseline's N=5000
  # rows are simply absent from the fresh run and skipped by the comparator.
  "${BUILD_DIR}/bench/micro_swarm" --max-n 1000 \
    --json-out "${OUT}/BENCH_swarm.json" > /dev/null
  # The fluid backend is cheap enough to measure in full every time; its
  # deterministic step counts are the behavior tripwire (a changed count
  # means the stable-dt derivation or scenario mapping moved), and the
  # N = 10^6 record's throughput backs the crossval suite's < 1 s gate.
  "${BUILD_DIR}/bench/micro_fluid" \
    --json-out "${OUT}/BENCH_fluid.json" > /dev/null
  TOOLS+=(engine swarm fluid)
fi
if [[ "${LEGS}" == "scale" || "${LEGS}" == "all" ]]; then
  "${BUILD_DIR}/bench/micro_swarm" --peers 100000 \
    --json-out "${OUT}/BENCH_swarm_scale.json"
  TOOLS+=(swarm_scale)
fi
if [[ ${#TOOLS[@]} -eq 0 ]]; then
  echo "error: unknown legs '${LEGS}' (smoke|scale|all)" >&2
  exit 1
fi

python3 - "${MODE}" "${OUT}" "${TOOLS[@]}" <<'EOF'
import json, sys

mode, outdir = sys.argv[1], sys.argv[2]
tools = sys.argv[3:]
FAIL, WARN = 0.20, 0.05
failures, warnings = [], []

def load(path):
    with open(path) as f:
        doc = json.load(f)
    return doc, {r["name"]: r for r in doc["results"]}

def check(metric, name, old, new, gate, worse_when_lower=True):
    # Throughput regresses when it drops; memory regresses when it grows.
    drop = (old - new) / old if old > 0 else 0.0
    if not worse_when_lower:
        drop = -drop
    delta = (new - old) / old if old > 0 else 0.0
    line = f"{name} [{metric}]: baseline {old:.6g} -> {new:.6g} ({delta:+.1%})"
    if drop > FAIL and gate:
        failures.append(line)
        print("FAIL  " + line)
    elif drop > WARN:
        warnings.append(line)
        print("warn  " + line)
    else:
        print("ok    " + line)

for tool in tools:
    base_doc, base = load(f"bench/baselines/BENCH_{tool}.json")
    fresh_doc, fresh = load(f"{outdir}/BENCH_{tool}.json")
    for name, b in sorted(base.items()):
        r = fresh.get(name)
        if r is None:
            print(f"skip  {name}: not measured in this run")
            continue
        # Event counts are deterministic: any difference is a behavior
        # change, not noise. Always a hard failure.
        if b.get("events") != r.get("events"):
            failures.append(
                f"{name} [events]: baseline {b.get('events')} != "
                f"measured {r.get('events')}")
            print("FAIL  " + failures[-1])
            continue
        if "speedup_vs_reference" in b and "speedup_vs_reference" in r:
            check("speedup_vs_reference", name,
                  float(b["speedup_vs_reference"]),
                  float(r["speedup_vs_reference"]), gate=True)
        check("events_per_sec", name,
              float(b["events_per_sec"]), float(r["events_per_sec"]),
              gate=(mode == "full"))
    # Peak RSS is per-process, so it only compares when this run measured
    # the baseline's full record set.
    if set(base) <= set(fresh):
        check("peak_rss_kb", f"BENCH_{tool}",
              float(base_doc.get("peak_rss_kb", 0)),
              float(fresh_doc.get("peak_rss_kb", 0)), gate=True,
              worse_when_lower=False)
    else:
        print(f"skip  BENCH_{tool} [peak_rss_kb]: partial run "
              "(baseline records missing from this measurement)")

print(f"\nbench gate: {len(failures)} failure(s), {len(warnings)} warning(s)")
sys.exit(1 if failures else 0)
EOF
