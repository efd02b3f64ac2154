#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 bench_e2e/run.py --workload road-insert --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout of the repository. The first run
configures and compiles the library and the harness into
$CARGO_TARGET_DIR/bench_e2e (default .bench_build/bench_e2e under the
checkout); later runs only rebuild what changed. Build output goes to
stderr, so the harness's last stdout line stays the result JSON.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.hpp")):
        sys.stderr.write("bench_e2e: library sources (src/) not found next to "
                         "the benchmark; run it from a full checkout\n")
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build = os.path.join(build_root, "bench_e2e")
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "bench_e2e"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("bench_e2e: build failed\n")
            return 2
    sys.stdout.flush()
    harness = subprocess.Popen([os.path.join(build, "bench_e2e")] + sys.argv[1:])
    try:
        return harness.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        harness.kill()
        harness.wait()
        sys.stderr.write("bench_e2e: run exceeded %ds, killed\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
