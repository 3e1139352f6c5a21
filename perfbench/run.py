#!/usr/bin/env python3
"""Build and run the FBL-RR end-to-end benchmark.

    python3 perfbench/run.py --workload recovery_n8 --seed 1 --seconds 50 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) under .bench_build/perfbench, or under
$CARGO_TARGET_DIR/perfbench when that is set; later calls only re-check the
build. The benchmark binary then runs one workload and prints one JSON
result as the last line of stdout. Build output goes to stderr. With
--trace 1 the traced run's spans are written to
<build dir>/spans-<workload>.bin.

Exit status: the binary's, or 1 if the build fails (for instance when the
simulator sources are missing).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("steady_n32", "recovery_n8", "scale_n256", "explore_sample")


def build(build_dir):
    """Configure (once) and build the benchmark binary; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(build_dir, f"spans-{args.workload}.bin")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
