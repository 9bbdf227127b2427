#!/usr/bin/env python3
"""netmon end-to-end benchmark entry point.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary from source (perfbench/CMakeLists.txt, which
compiles ../src) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset, then runs one workload in a fresh process. The
binary prints every metric by name with its unit and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

which this script re-prints as the last line of its own standard output,
keeping exactly the metrics BENCHMARK.json declares (end_to_end with
--trace 0, per_layer with --trace 1). Build output goes to standard error.
Exits 2, printing no result, when the sources are missing, the build fails,
the run times out, or the result line is malformed. A run whose correctness
checks fail prints its result with "correct": false and exits 1. See
perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("rtds9x3", "fabric10k", "admit_contended", "zones_chaos")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def declared_metrics(trace):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    except (OSError, ValueError, KeyError, TypeError):
        fail("cannot read the metric list from BENCHMARK.json")


def build(build_dir):
    if not os.path.isfile(os.path.join(HERE, os.pardir, "src", "CMakeLists.txt")):
        fail("netmon sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "netmon_perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    binary = os.path.join(build_dir, "netmon_perfbench")
    if not os.path.isfile(binary):
        fail("benchmark binary missing after build")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")

    names = declared_metrics(args.trace)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.tsv" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail("no result line (exit code %d)" % proc.returncode)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail("result lacks declared metrics: " + ", ".join(missing))
    result["metrics"] = {n: result["metrics"][n] for n in names}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
