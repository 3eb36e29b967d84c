#!/usr/bin/env python3
"""Build and run one perfbench workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the middleware and the benchmark binary in Release mode under
.bench_build/perfbench (incremental after the first run), then runs the
binary. Build output goes to stderr; the binary's standard output is
passed through unchanged, so its last line is the JSON result. The exit
code is the binary's, or 2 when the build fails.

When the build produced a new binary, the run waits COOL_DOWN_S first: on
a shared VM the minute of all-core compile load slows the next runs (the
two runs after a 60 s four-core load ran 28% slower than the ones
before it), which would otherwise show up as run-to-run spread.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("replfs-udp", "mazewar-sim", "field-sim", "scale-sim")
COOL_DOWN_S = 90


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    steps = (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    )
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no middleware sources next to the benchmark", file=sys.stderr)
        return 2
    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    binary = os.path.join(build_dir, "perfbench")
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if os.path.getmtime(binary) != before:
        print(f"perfbench: new build, cooling down {COOL_DOWN_S} s", file=sys.stderr)
        time.sleep(COOL_DOWN_S)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
