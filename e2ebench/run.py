#!/usr/bin/env python3
"""Build the program from this tree in Release and run one benchmark workload.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: scan-availability, scan-quality, audit-consistency, serve-ocsp.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
ones with --trace 1. Build output goes to stderr. Builds land in
$CARGO_TARGET_DIR (default .bench_build) under the repository root: one with
the obs instrumentation compiled in, as the program ships, and one with it
compiled out (-DMUSTAPLE_OBS=OFF), which only obs.tax_ratio uses.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Alternating obs-on/obs-off availability rounds behind obs.tax_ratio.
OBS_TAX_PAIRS = 3


def build_dir(variant):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "e2ebench-" + variant)


def build(variant, obs):
    """Configures (once) and builds one variant; returns the binary path."""
    out = build_dir(variant)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
             "-DMUSTAPLE_OBS=" + ("ON" if obs else "OFF")],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "e2ebench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "e2ebench")


def obs_tax_ratio(on_bin, off_bin, seed):
    """Scan time of one scan-availability round, obs compiled in / out."""
    times = {on_bin: [], off_bin: []}
    for _ in range(OBS_TAX_PAIRS):
        for binary in (on_bin, off_bin):
            done = subprocess.run([binary, "--obs-round", str(seed)],
                                  check=True, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            times[binary].append(float(done.stdout.strip().splitlines()[-1]))
    on, off = statistics.median(times[on_bin]), statistics.median(times[off_bin])
    print(f"obs tax: availability round {on:.3f} s obs on, {off:.3f} s obs off")
    return on / off


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--no-response-cache", action="store_true",
                        help="serve-ocsp without the wire ResponseCache "
                             "(reference figures only)")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print(f"program sources not found under {ROOT}/src", file=sys.stderr)
        return 1
    try:
        on_bin = build("obs-on", True)
        off_bin = build("obs-off", False)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1

    cmd = [on_bin, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.no_response_cache:
        cmd.append("--no-response-cache")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("workload timed out", file=sys.stderr)
        return 1
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        print(f"workload exited with {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if args.trace:
        ratio = obs_tax_ratio(on_bin, off_bin, args.seed)
        result["metrics"]["obs.tax_ratio"] = {"value": ratio, "unit": "ratio"}
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
