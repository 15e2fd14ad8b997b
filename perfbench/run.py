#!/usr/bin/env python3
"""Builds and runs one perfbench workload from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the popbean libraries and the perfbench program (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload, checks the result line against BENCHMARK.json and prints the
program's output. The last line of standard output is the result JSON.
Exits non-zero, printing no result, when the sources are missing, the build
fails, the program fails, or the result line is malformed.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import results

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"popbean sources not found under {ROOT}")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the run's output.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = results.load_spec(ROOT)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    binary = build()

    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    if args.workload == "serve_open":
        try:
            command += ["--rate", str(results.open_loop_rate(spec))]
        except results.OutputError as e:
            fail(str(e))
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} ran past {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"perfbench exited with code {done.returncode}")
    try:
        _, _, result = results.parse_output(done.stdout)
    except results.OutputError as e:
        sys.stderr.write(done.stdout)
        fail(str(e))
    problems = results.check_result(result, spec, bool(args.trace))
    if problems:
        sys.stderr.write(done.stdout)
        fail("; ".join(problems))
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
