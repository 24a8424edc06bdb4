#!/usr/bin/env python3
"""Build and run the Scenario 2 host-cost benchmark.

Usage, from the root of a checkout:

    python3 s2bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds s2bench (and the cherinet library from src/) under
$CARGO_TARGET_DIR/s2bench, default .bench_build/s2bench, with build output
on stderr, then runs one benchmark process. Its stdout ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. When BENCHMARK.json is
present, the metric names and units must match its end_to_end (--trace 0)
or per_layer (--trace 1) list. Exits non-zero when the build fails, an output
check fails, or the names or units disagree.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        rc = subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             env=env)
        if rc != 0:
            return False
    return True


def expected_metrics(trace):
    if not os.path.exists("BENCHMARK.json"):
        return None
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "s2bench"))
    if not build(build_dir):
        print("s2bench: build failed", file=sys.stderr)
        return 1

    proc = subprocess.run(
        [os.path.join(build_dir, "s2bench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if not lines:
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("s2bench: the last line is not a JSON result", file=sys.stderr)
        return 1
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want is not None and want != got:
        diff = sorted(set(want.items()) ^ set(got.items()))
        print(f"s2bench: metrics differ from BENCHMARK.json: {diff}",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
