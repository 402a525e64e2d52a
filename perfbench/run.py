#!/usr/bin/env python3
"""Builds and runs the coopnet benchmark for one workload.

    python3 perfbench/run.py --workload mech_sweep|bt_scale|ckpt_churn \
        [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny] \
        [--inject corrupt-snapshot|digest-mismatch]

Run from the repository root. The first call configures and builds a
Release tree of perfbench/ (which compiles ../src) under $CARGO_TARGET_DIR
(default .bench_build); later calls only re-check it. --trace 0 runs
perfbench_e2e and prints the end_to_end metrics of BENCHMARK.json, --trace 1
runs perfbench_trace and prints the per_layer ones; the last stdout line is
the result object. Build output and diagnostics go to stderr. Exits non-zero
without a result line when the build fails, the program fails, or its
result does not carry exactly the metrics BENCHMARK.json names.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_group(cmd, timeout, **kwargs):
    """subprocess.run in its own process group. On timeout, or when this
    script is told to stop, the whole group (a build's compilers included)
    is killed and reaped."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        def stop(signum, _frame):
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            sys.exit(128 + signum)

        handlers = {s: signal.signal(s, stop)
                    for s in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)}
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        finally:
            for s, h in handlers.items():
                signal.signal(s, h)
        return subprocess.CompletedProcess(cmd, proc.returncode, out)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def configured_source(cache):
    """The source directory a CMake cache was configured for, or None."""
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build(target, deadline):
    bdir = build_dir()
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.exists(cache) and (
            os.path.realpath(configured_source(cache) or "")
            != os.path.realpath(HERE)):
        log(f"discarding {bdir}: configured for another checkout")
        shutil.rmtree(bdir)
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", target, "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: the last stdout line is the result.
        done = run_group(cmd, max(1.0, deadline - time.monotonic()),
                         stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise subprocess.CalledProcessError(done.returncode, cmd)
    return os.path.join(bdir, target)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def check_result(line, expected):
    """Returns the parsed result line, or raises ValueError."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        raise ValueError(f"metrics differ from BENCHMARK.json: missing "
                         f"{missing}, unexpected {extra}, wrong unit {wrong}")
    return result


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--inject", choices=("corrupt-snapshot", "digest-mismatch"))
    args = ap.parse_args()

    deadline = time.monotonic() + BUILD_TIMEOUT_S
    target = "perfbench_trace" if args.trace else "perfbench_e2e"
    try:
        exe = build(target, deadline)
    except (subprocess.SubprocessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--size", args.size]
    if args.inject:
        cmd += ["--inject", args.inject]
    if args.trace:
        spans_dir = os.path.join(build_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                         text=True)
    except subprocess.TimeoutExpired:
        log(f"{target} exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"{target} exited with code {proc.returncode}")
        return 1
    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}
    try:
        check_result(lines[-1], expected)
    except (ValueError, KeyError, TypeError) as e:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(f"malformed result line: {e}")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
