#!/usr/bin/env python3
"""Steadiness check of the interval benchmark against BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10]

Run from the repository root. Runs every workload of BENCHMARK.json at its
run_seconds as two interleaved sets (A and B) of --runs runs each, seeds
1..runs in both sets, alternating which set goes first, so the sets are
spread over the same stretch of time. For every end-to-end metric and
workload it prints each set's median and interquartile range (as a share of
the median), and how much worse B's median is than A's.

It fails (exit 1) when any run is incorrect, when the share of failed
operations differs between the sets, when B's median of any metric is worse
than A's by more than the metric's bound, or when the interquartile range of
a metric other than setup_s exceeds its bound. setup_s is judged by the
shift of its median alone: it is the gate against work moved out of the
timed phase into set-up, and such a move shows as a shift of the median, so
its spread across seeds is printed but not bounded. Raw results go to
<build dir>/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"steady: {workload} seed {seed} failed")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith("fingerprint: "):
            result["fingerprint"] = json.loads(line[len("fingerprint: "):])
    return result


def spread(values: list) -> tuple:
    """(median, interquartile range as a share of the median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    runs = {w: {"A": [], "B": []} for w in workloads}
    started = time.time()
    for i in range(args.runs):
        seed = i + 1
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for workload in workloads:
            for side in order:
                runs[workload][side].append(
                    run_once(workload, seed, spec["run_seconds"]))
        print(f"steady: round {i + 1}/{args.runs} done after "
              f"{time.time() - started:.0f} s", file=sys.stderr, flush=True)
    out_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "steady.json").write_text(json.dumps(runs, indent=1))

    fingerprint = dict(runs[workloads[0]]["A"][0].get("fingerprint", {}))
    for key in ("workload", "seed"):
        fingerprint.pop(key, None)
    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    ok = True
    print(f"{'workload':14} {'metric':24} {'median A':>12} {'iqr A':>7} "
          f"{'median B':>12} {'iqr B':>7} {'B worse':>8} {'bound':>6}")
    for workload in workloads:
        sides = runs[workload]
        for side in ("A", "B"):
            for r in sides[side]:
                if not r["correct"]:
                    print(f"FAIL {workload}: a run of set {side} is incorrect")
                    ok = False
        share = {side: [r["failed"] / r["attempted"] for r in sides[side]]
                 for side in ("A", "B")}
        if sorted(share["A"]) != sorted(share["B"]):
            print(f"FAIL {workload}: failed shares differ between the sets")
            ok = False
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            values = {side: [r["metrics"][name]["value"] for r in sides[side]]
                      for side in ("A", "B")}
            med_a, iqr_a = spread(values["A"])
            med_b, iqr_b = spread(values["B"])
            worse = (med_b - med_a) / med_a
            if metric["better"] == "higher":
                worse = -worse
            flags = []
            if name != "setup_s" and max(iqr_a, iqr_b) > bound:
                flags.append("SPREAD")
            if worse > bound:
                flags.append("SHIFT")
            ok = ok and not flags
            note = " ".join(flags) or ("" if max(iqr_a, iqr_b) < bound / 3
                                       else "(spread > bound/3)")
            print(f"{workload:14} {name:24} {med_a:12.5g} {iqr_a:7.3f} "
                  f"{med_b:12.5g} {iqr_b:7.3f} {worse:8.3f} {bound:6.2f} "
                  f"{note}")
    print("steady: PASS" if ok else "steady: FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
