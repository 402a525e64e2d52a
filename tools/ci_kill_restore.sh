#!/usr/bin/env bash
# CI kill-restore leg: SIGKILL a checkpointing fleet worker mid-cell and
# require the replacement worker to RESUME the cell from the
# coordinator-held snapshot -- not restart it from scratch -- with the
# merged JSON byte-identical to an uninterrupted single-machine run.
# Exercises the mid-cell checkpoint/restore path end to end (DESIGN §13):
# worker-side snapshot cadence, CKPT shipping over heartbeats, the
# coordinator's newest-wins snapshot store surviving the worker's death,
# CKPT-before-LEASE hand-off to the next lessee, and byte-identical
# continuation of a restored cell.
#
# The scenario is chosen so the kill window is wide: fig4_compliant's
# second cell (reciprocity -- nobody finishes, runs to max_time) takes
# ~12s of wall clock, roughly the whole reference
# sweep's duration (the --jobs 2 reference is dominated by that same
# cell). Scheduling the kill at ~2/3 of the measured reference wall
# after the victim's first result therefore lands deep inside the long
# cell on any machine speed.
#
# Usage: tools/ci_kill_restore.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD_DIR=${1:-build}
SWEEP="$BUILD_DIR/bench/fig4_compliant"
# Big cells on purpose: snapshots must be worth shipping and the kill
# must land mid-cell. --checkpoint-every is in SIMULATED seconds; the
# 4000-sim-second reciprocity cell yields a snapshot every ~100 sim s,
# shipped on the next 0.25 s heartbeat, so the coordinator's copy trails
# the victim's progress by well under a second of wall clock.
ARGS=(--n 1500 --file-mb 64 --seed 23 --cell-timeout 600)
EVERY=100
PORT=${COOPNET_FLEET_PORT:-39119}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"; kill $(jobs -p) 2> /dev/null || true' EXIT

cell_count() {
  grep -c '"kind":"cell"' "$1" 2>/dev/null || true
}

echo "== reference: uninterrupted single-machine --jobs 2 sweep"
ref_start=$(date +%s.%N)
"$SWEEP" "${ARGS[@]}" --jobs 2 --journal "$tmp/ref.jsonl" \
  --json-out "$tmp/ref.json" > /dev/null
# The reference wall clock is the machine-speed probe for the kill
# delay: --jobs 2 means it is dominated by the long second cell.
ref_wall=$(awk -v a="$ref_start" -v b="$(date +%s.%N)" \
  'BEGIN{printf "%.2f", b-a}')
echo "   reference took ${ref_wall}s"

log="$tmp/fleet"
mkdir -p "$log"
echo "== coordinator on 127.0.0.1:$PORT"
"$SWEEP" "${ARGS[@]}" --fleet-listen "$PORT" \
  --lease-cells 1 --lease-timeout 10 --heartbeat 0.25 \
  --journal "$log/fleet.jsonl" --json-out "$log/fleet.json" \
  > "$log/coordinator.log" 2>&1 &
coord_pid=$!

# exec so the background pid is the worker binary itself -- the
# SIGKILL below must hit the worker, not a wrapping subshell.
worker() {
  exec "$SWEEP" "${ARGS[@]}" \
    --checkpoint-every "$EVERY" --fleet-connect "127.0.0.1:$PORT" \
    --fleet-name "$1" > "$log/$1.log" 2>&1
}
worker victim & victim_pid=$!

# Wait for the first cell's result, then sleep ~2/3 of the reference
# wall so the SIGKILL lands deep inside the long second cell -- past
# the point where the coordinator holds a snapshot covering most of
# the cell's events.
for _ in $(seq 1 6000); do
  cells=$(cell_count "$log/fleet.jsonl")
  [ "${cells:-0}" -ge 1 ] && break
  sleep 0.01
done
[ "${cells:-0}" -ge 1 ] || {
  echo "kill-restore: victim never finished its first cell" >&2
  exit 1
}
sleep "$(awk -v d="$ref_wall" 'BEGIN{printf "%.2f", d * 0.65}')"
kill -0 "$victim_pid" 2> /dev/null || {
  echo "kill-restore: victim finished the sweep before the kill --" \
    "the scenario is too small for this machine" >&2
  exit 1
}
kill -9 "$victim_pid" 2> /dev/null || true
wait "$victim_pid" 2> /dev/null || true
echo "   victim killed with $(cell_count "$log/fleet.jsonl")" \
  "cell(s) journaled"

echo "== replacement worker picks the sweep back up"
worker resumer & resumer_pid=$!
wait "$resumer_pid" || {
  echo "kill-restore: resumer exited nonzero" >&2
  cat "$log/resumer.log" >&2
  exit 1
}
wait "$coord_pid" || {
  echo "kill-restore: coordinator exited nonzero (degraded sweep?)" >&2
  tail -20 "$log/coordinator.log" >&2
  exit 1
}
grep -E "fleet: " "$log/coordinator.log" || true
grep -E "resumed" "$log/resumer.log" || true

# The kill must have been observed as a worker loss, and at least one
# snapshot must have crossed the wire in each direction -- without
# these checks the test silently degrades into a plain fleet rerun.
grep -qE "fleet: .* joined, [1-9][0-9]* lost," "$log/coordinator.log" || {
  echo "kill-restore: coordinator never saw the victim die" >&2
  exit 1
}
grep -qE "fleet: [1-9][0-9]* snapshot\(s\) received, [1-9][0-9]* handed" \
  "$log/coordinator.log" || {
  echo "kill-restore: no snapshot was received or handed to a lessee" >&2
  exit 1
}

# The replacement worker must have RESUMED the victim's cell from the
# shipped snapshot, not restarted it from scratch.
resumed_line=$(grep -E \
  "fleet worker 'resumer': resumed [1-9][0-9]* cell" "$log/resumer.log") \
  || {
  echo "kill-restore: resumer restarted the cell from scratch" >&2
  exit 1
}
replayed=$(sed -E 's/.*replayed ([0-9]+) events.*/\1/' \
  <<< "$resumed_line")
restored=$(sed -E 's/.*on top of ([0-9]+) restored.*/\1/' \
  <<< "$resumed_line")

# Replayed events must be well short of the full cell: the kill
# landed deep in the cell, and the snapshot cadence + heartbeat keep
# the coordinator's copy close behind the victim's progress. (The
# threshold is 3/4 to tolerate machine-speed skew in where the kill
# lands; in practice the replayed share is 15-40%.)
total=$((replayed + restored))
[ $((replayed * 4)) -lt $((total * 3)) ] || {
  echo "kill-restore: replayed $replayed of $total events --" \
    "the snapshot did not keep pace with the victim" >&2
  exit 1
}
# Determinism cross-check: restored + replayed must equal the full
# event count of SOME reference cell (the resumed one) exactly.
grep -q "\"events\":$total[,}]" "$tmp/ref.jsonl" || {
  echo "kill-restore: restored+replayed=$total matches no reference" \
    "cell's event count" >&2
  exit 1
}
echo "   resumed: $restored events restored, $replayed replayed" \
  "(= reference cell's $total exactly)"

echo "== diff merged JSON against the reference"
cmp "$tmp/ref.json" "$log/fleet.json"
[ "$(cell_count "$log/fleet.jsonl")" -eq "$(cell_count "$tmp/ref.jsonl")" ]
echo "kill-restore: resumed mid-cell," \
  "merged JSON byte-identical to the single-machine run"
