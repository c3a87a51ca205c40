#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs, taken apart in time.

    python3 e2ebench/steady.py

Each set runs every workload of BENCHMARK.json with seeds 1..10 through
e2ebench/run.py at BENCHMARK.json's run_seconds. The workloads are
interleaved inside a set (for each seed, every workload in turn), so each
workload's runs spread over the whole set and share its host phases. The
second set starts a minute after the first ends.

For every (workload, end-to-end metric) it prints each set's quartiles
(statistics.quantiles, n=4), median and spread (q3 - q1) / median, the
shift (B - A) / A, and whether the sets agree: both spreads within the
metric's bound, the shift within the bound in either direction, the same
share of failed operations, and every run correct. It also prints each
set's median reference-loop time, which tells a slow host phase from a
slow program. Exits 0 when everything agrees, 1 otherwise.
"""
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
GAP_S = 60


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed} failed ({done.returncode})")
    lines = done.stdout.splitlines()
    # "reference_loop_ms before <ms> after <ms>"
    ref = [l.split() for l in lines if l.startswith("reference_loop_ms")][0]
    return json.loads(lines[-1]), (float(ref[2]) + float(ref[4])) / 2


def run_set(label, workloads, seconds):
    results = {w: [] for w in workloads}
    refs = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            result, ref = run_once(w, seed, seconds)
            results[w].append(result)
            refs[w].append(ref)
            print(f"[{label}] {time.strftime('%H:%M:%S')} {w} seed {seed}: "
                  f"correct={result['correct']} reference loop {ref:.1f} ms",
                  flush=True)
    return results, refs


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return q1, median, q3, (q3 - q1) / median


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    first, first_refs = run_set("A", workloads, seconds)
    time.sleep(GAP_S)
    second, second_refs = run_set("B", workloads, seconds)

    agree = True
    print(f"\n{'workload':18} {'metric':12} {'set':3} {'q1':>12} {'median':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6} {'B vs A':>7}  verdict")
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in s[w]])
                     for s in (first, second)]
            shift = (stats[1][1] - stats[0][1]) / stats[0][1]
            spreads_ok = stats[0][3] <= bound and stats[1][3] <= bound
            shift_ok = abs(shift) <= bound
            agree = agree and spreads_ok and shift_ok
            verdict = "ok" if spreads_ok and shift_ok else "DISAGREE (" + \
                ", ".join(([] if spreads_ok else ["spread"]) +
                          ([] if shift_ok else ["shift"])) + ")"
            for label, st in zip("AB", stats):
                q1, med, q3, spread = st
                tail = f"{100 * shift:+6.1f}%  {verdict}" if label == "B" else ""
                print(f"{w:18} {name:12} {label:3} {q1:12.6g} {med:12.6g} "
                      f"{q3:12.6g} {100 * spread:6.1f}% {100 * bound:5.0f}% {tail}")
        shares = [sum(r["failed"] for r in s[w]) / sum(r["attempted"] for r in s[w])
                  for s in (first, second)]
        correct = all(r["correct"] for s in (first, second) for r in s[w])
        same_share = shares[0] == shares[1]
        agree = agree and same_share and correct
        print(f"{w:18} failed share A {shares[0]:.6g} B {shares[1]:.6g} "
              f"({'equal' if same_share else 'DIFFER'}); all runs correct: "
              f"{correct}; reference loop median A "
              f"{statistics.median(first_refs[w]):.1f} ms, B "
              f"{statistics.median(second_refs[w]):.1f} ms")
    print("\nverdict:", "the two sets agree within the bounds" if agree
          else "the two sets DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
