#!/usr/bin/env python3
"""Steadiness harness for the end-to-end benchmark.

Runs two sets (A and B) of the same build through perfbench/run.py, pair by
pair, alternating which set goes first in each pair, with the workloads
interleaved so slow host drift charges every workload alike. For each
workload x end-to-end metric it prints each set's median and quartiles, the
spread (interquartile range over median) the acceptance rule bounds, and the
set-to-set difference of the medians, against the metric's bound from
BENCHMARK.json.

    python3 perfbench/steady.py                      # 10 pairs, every workload
    python3 perfbench/steady.py --runs 5 --sets 1 --workloads ckpt-milc

Set A uses seeds base..base+runs-1 and set B the next `runs` seeds. Raw
results land in .bench_build/perfbench/steady-<time>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["notes"] = [l[2:] for l in lines[:-1] if l.startswith("# ")]
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--sets", type=int, choices=[1, 2], default=2)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated subset (default: all)")
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be >= 2 (quartiles need two values)")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]
    sets = "AB"[:args.sets]

    results = {w: {s: [] for s in sets} for w in workloads}
    started = time.monotonic()
    for i in range(args.runs):
        order = sets if i % 2 == 0 else sets[::-1]
        for w in workloads:
            for s in order:
                seed = args.seed_base + (0 if s == "A" else args.runs) + i
                r = run_once(w, seed, seconds)
                results[w][s].append({"seed": seed, **r})
                print(f"[{time.monotonic() - started:7.1f}s] pair {i} {w} "
                      f"set {s} seed {seed}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']}",
                      flush=True)

    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    raw = out_dir / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    raw.write_text(json.dumps(results, indent=1))

    print(f"\n{args.runs} run(s) per set, {seconds:g} s each; "
          f"quartiles per set are over n={args.runs} runs; raw: {raw}")
    print("spread = (q3-q1)/median; diff = (median B - median A)/median A; "
          "'steady' = spread < bound/3")
    worst = 0.0
    bad = []
    for w in workloads:
        print(f"\n{w}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            row = f"  {name:14s} bound {bound:4.2f}"
            meds = []
            for s in sets:
                vals = [r["metrics"][name]["value"] for r in results[w][s]]
                med, q1, q3, spread = summarize(vals)
                meds.append(med)
                row += (f" | {s}: med {med:11.5g} q1 {q1:11.5g} q3 {q3:11.5g}"
                        f" spread {spread:6.3f}")
                if name != "setup_s":
                    worst = max(worst, spread / bound)
                    if spread >= bound / 3:
                        bad.append(f"{w}/{name} set {s} spread {spread:.3f}")
            if len(meds) == 2:
                diff = (meds[1] - meds[0]) / meds[0]
                row += f" | diff {diff:+.3f}"
                if abs(diff) > bound:
                    bad.append(f"{w}/{name} set diff {diff:+.3f}")
            print(row)
        failed = sum(r["failed"] for s in sets for r in results[w][s])
        attempted = sum(r["attempted"] for s in sets for r in results[w][s])
        print(f"  ops: {attempted} attempted, {failed} failed")
    print(f"\nworst spread / bound (setup_s excluded): {worst:.3f}")
    if bad:
        print("over a third of the bound, or sets apart by more than it:")
        for b in bad:
            print(f"  {b}")
        return 1
    print("every spread is under a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
