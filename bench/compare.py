"""Run two sets of benchmark runs and compare them against BENCHMARK.json's bounds.

    python3 bench/compare.py --runs 10 --seed 1 --holdout-seed 1001

Every run lasts BENCHMARK.json's ``run_seconds``.  Set A uses seeds
``--seed`` .. ``--seed + runs - 1`` and set B the same count from
``--holdout-seed`` (the default repeats set A's seeds); runs of the two sets
alternate.  For every workload and end-to-end metric it prints each set's
median and spread (distance between the first and third quartile, as a
share of the median), and it fails when

* a spread exceeds the metric's bound,
* the two sets' medians differ, in either direction, by more than the bound, or
* the share of failed operations differs between any two runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed, seconds):
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    if argv[0] in ("python", "python3"):
        argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} reported incorrect output: {proc.stderr[-500:]}")
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric, median_a, median_b):
    """How much worse B is than A, as a share of A (negative when better)."""
    if metric["better"] == "lower":
        return (median_b - median_a) / median_a
    return (median_a - median_b) / median_a


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--holdout-seed", type=int, default=None)
    parser.add_argument("--workloads", help="comma-separated subset of the workloads")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to compute quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    holdout = args.seed if args.holdout_seed is None else args.holdout_seed
    seeds = {"A": [args.seed + i for i in range(args.runs)],
             "B": [holdout + i for i in range(args.runs)]}
    sets = ["A", "B"]

    ok = True
    summary = {}
    for name in names:
        results = {s: [] for s in sets}
        for i in range(args.runs):
            for s in sets:
                started = time.perf_counter()
                results[s].append(run_once(spec, name, seeds[s][i], seconds))
                print(f"{name} set {s} seed {seeds[s][i]}: {time.perf_counter() - started:.1f} s",
                      file=sys.stderr)
        shares = {Fraction(r["failed"], r["attempted"]) for s in sets for r in results[s]}
        if len(shares) != 1:
            ok = False
            print(f"FAIL {name}: failed share differs between runs: {sorted(shares)}")
        rows = summary[name] = {"failed_share": [str(x) for x in sorted(shares)]}
        for s in sets:
            attempted = sum(r["attempted"] for r in results[s])
            failed = sum(r["failed"] for r in results[s])
            print(f"{name:10} set {s}: {attempted} operations attempted, {failed} failed")
        for metric in spec["end_to_end"]:
            key, unit, bound = metric["name"], metric["unit"], metric["bound"]
            row = rows[key] = {}
            for s in sets:
                values = [r["metrics"][key]["value"] for r in results[s]]
                row[s] = {"median": statistics.median(values), "spread": spread(values),
                          "values": values}
                if row[s]["spread"] > bound:
                    ok = False
                    print(f"FAIL {name} {key}: set {s} spread {row[s]['spread']:.3f} > bound {bound}")
            row["worse_by"] = worse_by(metric, row["A"]["median"], row["B"]["median"])
            if abs(row["worse_by"]) > bound:
                ok = False
                print(f"FAIL {name} {key}: set B differs by {row['worse_by']:+.3f}, beyond bound {bound}")
            cells = "  ".join(
                f"{s}: median {row[s]['median']:.6g} spread {row[s]['spread']:.3f}" for s in sets)
            print(f"{name:10} {key:12} {unit:5} bound {bound:<5} {cells}  B worse by {row['worse_by']:+.3f}")

    out = ROOT / "bench" / "out"
    out.mkdir(exist_ok=True)
    (out / f"compare-{int(time.time())}.json").write_text(
        json.dumps({"seeds": seeds, "seconds": seconds, "passed": ok, "workloads": summary},
                   indent=1) + "\n")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
