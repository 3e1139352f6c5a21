#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, at the smallest size.

    python3 perfbench/selftest.py        # from the repository root, about a minute

Builds the benchmark as run.py does, then runs every workload run.py
accepts (those in BENCHMARK.json and the diagnostic ones) with --size tiny
and checks that:

  * the last line of each run is a result whose metrics are exactly the
    end_to_end metrics (--trace 0) or the per_layer metrics (--trace 1) of
    BENCHMARK.json, each with the unit given there;
  * every run is correct, with failed == 0 and fail_share == 0;
  * the traced run is deterministic: a second traced run on the same seed
    prints the same digests (state hash, event count) and the same counts.

Exits 0 when every check passes, 1 otherwise.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build step)

DIGEST = re.compile(r"^digest (\S+) (\S+) (\S+) state_hash=(\w+)(?: events=(\d+))?")
TIMED_UNITS = {"s", "ns", "h", "ratio"}


def run_once(binary, workload, trace):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "0.01",
           "--trace", str(trace), "--size", "tiny"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise AssertionError(f"{workload} --trace {trace}: exit {out.returncode}\n{out.stderr}")
    digests = [m.groups() for m in map(DIGEST.match, lines) if m]
    return json.loads(lines[-1]), digests


def check_result(result, expected, label):
    errors = []
    metrics = result.get("metrics", {})
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
    if set(metrics) != set(expected):
        errors.append(f"{label}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(expected) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        if name in metrics and metrics[name].get("unit") != unit:
            errors.append(f"{label}: {name} unit {metrics[name].get('unit')} != {unit}")
    if "fail_share" in metrics and metrics["fail_share"]["value"] != 0:
        errors.append(f"{label}: fail_share {metrics['fail_share']['value']}")
    return errors


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    build_dir = os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    binary = run.build(build_dir)
    if binary is None:
        print("selftest: build failed", file=sys.stderr)
        return 1

    errors = []
    for workload in run.WORKLOADS:
        try:
            plain, _ = run_once(binary, workload, 0)
            traced, digests = run_once(binary, workload, 1)
            again, digests_again = run_once(binary, workload, 1)
        except AssertionError as e:
            errors.append(str(e))
            continue
        errors += check_result(plain, end_to_end, f"{workload} --trace 0")
        errors += check_result(traced, per_layer, f"{workload} --trace 1")
        if not digests or digests != digests_again:
            errors.append(f"{workload}: traced digests differ between runs\n"
                          f"  {digests}\n  {digests_again}")
        for name, unit in per_layer.items():
            if unit in TIMED_UNITS:
                continue
            a = traced["metrics"].get(name, {}).get("value")
            b = again["metrics"].get(name, {}).get("value")
            if a != b:
                errors.append(f"{workload}: {name} not repeatable ({a} vs {b})")
        print(f"selftest: {workload}: {len(digests)} digests, "
              f"{len(plain['metrics'])} + {len(traced['metrics'])} metrics", flush=True)

    for e in errors:
        print("FAIL", e)
    print("selftest:", "FAILED" if errors else "OK")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
