#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <explore|serve-zipf|ingest> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The engine is compiled from ./src into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build
output goes to stderr, so the last line of stdout is the result JSON.
Snapshots and span files go to the build directory's run/ folder.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Build and run stay well inside the 900 s / 180 s a run may take.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "trinit.h")):
        fail("engine sources not found under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(step))
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def check_metric_names():
    """main.cc reports exactly the metrics BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "main.cc")) as f:
        source = f.read()
    ok = True
    for section, function in (("end_to_end", "EndToEndMetrics"),
                              ("per_layer", "PerLayerMetrics")):
        start = source.index("void %s(" % function)
        body = source[start:source.index("\n}\n", start)]
        reported = re.findall(r'report\.Add\(\s*"([^"]+)"', body)
        listed = [m["name"] for m in spec[section]]
        if sorted(reported) != sorted(listed):
            print("%s metrics differ between main.cc and BENCHMARK.json: "
                  "%s" % (section, sorted(set(reported) ^ set(listed))),
                  file=sys.stderr)
            ok = False
    print("metric names %s" % ("match BENCHMARK.json" if ok else "DIFFER"))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["explore", "serve-zipf", "ingest"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness self-tests")
    args = parser.parse_args()

    out = build_dir()
    build(out)
    if args.selftest:
        test = os.path.join(out, "perfbench_selftest")
        if not os.path.isfile(test):
            fail("self-tests need GoogleTest, which was not found")
        code = subprocess.run([test], check=False).returncode
        sys.exit(code if check_metric_names() else 1)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    scratch = os.path.join(out, "run")
    command = [os.path.join(out, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
