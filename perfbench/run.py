#!/usr/bin/env python3
"""Repo benchmark for mdp: build from source, run one workload, check it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the mdp library from src/ plus the driver) into
.bench_build/perfbench; later calls rebuild incrementally. The workload runs
in its own process (bench binary `mdp_perfbench`), whose peak RSS is the
reported memory. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; its metric names and units are
checked against BENCHMARK.json (end_to_end for --trace 0, per_layer for
--trace 1; a per-layer metric of a layer the workload never enters reads 0).
Exit status is non-zero when the build fails, the metric set does not match,
or any output check of the workload failed.

--self-test builds and runs the tests of the benchmark's own arithmetic.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
# Whole-run budget: every run must end within 180 s, the first one (which
# builds) within 900 s.
RUN_BUDGET_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"mdp sources not found under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
                  "--target", target])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return BUILD / target


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def check_metrics(got, declared, fill_missing):
    """Match the binary's metrics to the declared set, name and unit."""
    out = {}
    for m in declared:
        name, unit = m["name"], m["unit"]
        if name in got:
            if got[name]["unit"] != unit:
                fail(f"metric {name} has unit {got[name]['unit']}, declared {unit}")
            out[name] = got[name]
        elif fill_missing:
            out[name] = {"value": 0, "unit": unit}
        else:
            fail(f"metric {name} missing from the workload's result")
    extra = set(got) - set(out)
    if extra:
        fail(f"undeclared metrics: {sorted(extra)}")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    args = ap.parse_args()
    start = time.monotonic()

    if args.self_test:
        sys.exit(subprocess.run([str(build("perfbench_selftest"))]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    binary = build("mdp_perfbench")

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    budget = max(RUN_BUDGET_S - (time.monotonic() - start), args.seconds + 30)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {budget:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"workload printed nothing (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    keys = ("correct", "attempted", "failed", "metrics")
    if not isinstance(result, dict) or any(k not in result for k in keys):
        fail(f"last line is not a result (exit {proc.returncode}): {lines[-1]!r}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    result["metrics"] = check_metrics(result["metrics"], declared,
                                      fill_missing=bool(args.trace))
    for line in lines[:-1]:
        print(line)
    print(json.dumps({k: result[k] for k in keys}))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
