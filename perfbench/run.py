#!/usr/bin/env python3
"""Builds and runs one workload of the spca interval benchmark.

    python3 perfbench/run.py --workload abilene-sim --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt compiles the library from src/) into
$CARGO_TARGET_DIR, or .bench_build when unset; later runs only check that
the build is current. The run prints a host fingerprint line and, as its
last line, one JSON object with the keys correct, attempted, failed and
metrics. Exits non-zero without a result if the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("abilene-sim", "abilene-tcp", "wide-sim", "replay-ingest")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def build(root: Path, build_dir: Path) -> Path:
    """Configures (once) and builds the benchmark binary; build output goes
    to stderr so that stdout carries only the result."""
    source = root / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(source), "-B", str(build_dir),
             f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "spca_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "spca_perfbench"


def source_identity(root: Path) -> str:
    """The git commit when the root is a git work tree, else a digest of the
    library and benchmark sources (a checkout without .git still compares
    exactly)."""
    if (root / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(root, build_dir / "perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    env = dict(os.environ, SPCA_LOG_LEVEL="warn")
    try:
        proc = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace), "--data-dir", str(build_dir / "data")],
            capture_output=True, text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: run failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    facts = dict(line.split(": ", 1) for line in lines[:-1] if ": " in line)
    json.loads(lines[-1])  # the result line must parse

    fingerprint = {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "build_type": facts.get("build_type", "unknown"),
        "pool_lanes": int(facts.get("lanes", "0")),
        "commit": source_identity(root),
        "workload": args.workload,
        "seed": args.seed,
    }
    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
