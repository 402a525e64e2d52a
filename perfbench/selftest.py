#!/usr/bin/env python3
"""Self-test of the coopnet benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Drives perfbench/run.py at the tiny size
(sub-second workloads; timings meaningless) and checks that:
  - every workload prints, traced and untraced, exactly the metrics
    BENCHMARK.json names, each with its unit, and passes its own checks;
  - two processes with the same seed print the same report digests;
  - a corrupted resume snapshot and a mismatched digest are counted as
    failed operations in a printed result, not a crash.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*args):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--size", "tiny",
           "--seconds", "0.5", *args]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{' '.join(args)}: exit {proc.returncode}\n"
                             f"{proc.stderr[-2000:]}")
    digests = sorted(line for line in lines if line.startswith("# digest "))
    return json.loads(lines[-1]), digests


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    failures = []

    def check(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    for w in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run("--workload", w, "--trace", str(trace))
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            check(got == want, f"{w} trace={trace}: every {section} metric "
                               f"printed with its unit")
            check(all(isinstance(m["value"], (int, float))
                      for m in result["metrics"].values()),
                  f"{w} trace={trace}: every value is a number")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{w} trace={trace}: correct, nothing failed")
        _, first = run("--workload", w, "--seed", "3")
        _, second = run("--workload", w, "--seed", "3")
        check(first and first == second,
              f"{w}: digests repeat across processes")

    for trace in ("0", "1"):
        result, _ = run("--workload", "ckpt_churn", "--trace", trace,
                        "--inject", "corrupt-snapshot")
        check(not result["correct"] and result["failed"] > 0,
              f"corrupted snapshot counted as a failure (trace={trace})")
        result, _ = run("--workload", "mech_sweep", "--trace", trace,
                        "--inject", "digest-mismatch")
        check(not result["correct"] and result["failed"] > 0,
              f"mismatched digest counted as a failure (trace={trace})")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
