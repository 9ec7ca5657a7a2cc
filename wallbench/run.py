#!/usr/bin/env python3
"""Build and run the wall-clock DCR benchmark from the root of a checkout.

    python3 wallbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the runtime from ../src together with the `wallbench` binary (CMake,
Release) under $CARGO_TARGET_DIR or .bench_build, then runs it.  Its last
output line is the JSON result.  `--workload all` runs every
workload in turn and prints each one's table and result line.

Exits non-zero, without a result line, when the runtime sources are missing,
the build fails, or the benchmark fails or overruns its time limit.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["stencil_replay", "pennant_fresh", "stencil_phase_auto", "taskbench_metg"]
# The binary keeps its own deadline per unit of work; this is the backstop for a
# process that stops making progress altogether.
RUN_LIMIT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "wallbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("wallbench: runtime sources (src/) not found next to wallbench/")
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "wallbench", "wallbench_harness_test"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            log("wallbench: build step failed: " + " ".join(cmd))
            return None
    return out / "wallbench"


def run_one(binary, workload, seed, seconds, trace):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        sys.stdout.write(out)
        log(f"wallbench: {workload} seed {seed} exceeded {RUN_LIMIT_S} s; killed")
        return 3
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for w in workloads:
        rc = run_one(binary, w, args.seed, args.seconds, args.trace)
        if rc != 0:
            log(f"wallbench: {w} exited with code {rc}")
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
