#!/usr/bin/env python3
"""End-to-end, layer-by-layer benchmark for rootstore.

Run from the repository root:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --self-test

Builds the program and the benchmark from source into `.bench_build/`
(RelWithDebInfo, as the repository builds by default), then runs the
`e2ebench` runner for one workload in its own process.  The runner prints a
human-readable report and, as its last line, one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
(and writes a Chrome trace to `.bench_out/`).  Workloads and metrics are
listed in BENCHMARK.json and explained in e2ebench/README.md.

Exits non-zero without printing a result when the program cannot be built
or any output is wrong.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "e2ebench"
BUILD_DIR = ROOT / ".bench_build"
WORKLOADS = ("ingest_reports", "serve_mix")
RUN_TIMEOUT_S = 175
BUILD_JOBS = "4"


def log(message):
    print(f"e2ebench: {message}", file=sys.stderr, flush=True)


def build(targets):
    """Configures (first time) and builds `targets`; build output goes to
    stderr so stdout carries only the benchmark report."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no rootstore sources under {ROOT}; nothing to benchmark")
        return False
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return False
    cmd = ["cmake", "--build", str(BUILD_DIR), "-j", BUILD_JOBS, "--target"]
    if subprocess.run(cmd + list(targets), stdout=sys.stderr).returncode != 0:
        log("build failed")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()

    if args.self_test:
        if not build(["e2ebench_tests"]):
            return 2
        return subprocess.run([str(BUILD_DIR / "e2ebench_tests")]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not build(["e2ebench", "rootstore"]):
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    cmd = [str(BUILD_DIR / "e2ebench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--root", str(ROOT),
           "--rootstore", str(BUILD_DIR / "rootstore" / "tools" / "rootstore"),
           "--metrics", ",".join(f"{m['name']}={m['unit']}" for m in metrics)]
    # The runner inherits stdout, so its last line is this command's last
    # line.  It stops every server it spawns before it exits.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=dict(os.environ))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; stopping it")
        proc.terminate()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        return 3


if __name__ == "__main__":
    sys.exit(main())
