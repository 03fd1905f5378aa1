#!/usr/bin/env python3
"""End-to-end benchmark of the AIC checkpointing library.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the library (src/) and the perfbench driver into .bench_build/perfbench
with CMake (a no-op after the first run), runs one workload in its own
process, checks the result against BENCHMARK.json and prints it as the last
line of standard output:

    {"correct": true, "attempted": 2000, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics with tracing off; --trace 1 reports
the per-layer metrics of a traced run and leaves a Chrome trace and a ledger
table under .bench_build/perfbench/out/. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
OUT = BUILD / "out"

BUILD_TIMEOUT_S = 800  # a cold build of the library takes about a minute
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def run_group(cmd, timeout, capture):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=subprocess.PIPE if capture else sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[0]} timed out after {timeout:.0f} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out, err


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
        for cmd in steps:
            code, _, _ = run_group(cmd, BUILD_TIMEOUT_S, capture=False)
            if code != 0:
                raise BenchError(f"build step failed: {' '.join(cmd)}")
    if not BINARY.is_file():
        raise BenchError(f"build produced no {BINARY}")


def check_result(result, spec, trace):
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        raise BenchError("result line has the wrong keys")
    if not isinstance(result["correct"], bool):
        raise BenchError("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise BenchError(f"'{key}' is not a whole number")
    if result["attempted"] < 1:
        raise BenchError("no operation was attempted")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        raise BenchError(f"metric set differs from BENCHMARK.json: "
                         f"missing {missing}, extra {extra}")
    for name, unit in expected.items():
        m = metrics[name]
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            raise BenchError(f"metric {name}: expected unit {unit}")
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) \
                or not math.isfinite(v):
            raise BenchError(f"metric {name}: value {v!r} is not a number")
        if not trace and v <= 0:
            raise BenchError(f"end-to-end metric {name} reads {v}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    started = time.monotonic()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r} "
                             f"(one of {', '.join(names)})")
        build()
        OUT.mkdir(parents=True, exist_ok=True)
        budget = RUN_TIMEOUT_S
        if time.monotonic() - started > 60:  # this run built the library
            budget = max(RUN_TIMEOUT_S, 880 - (time.monotonic() - started))
        cmd = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", args.trace, "--out", str(OUT)]
        code, out, err = run_group(cmd, budget, capture=True)
        sys.stderr.write(err)
        if code != 0:
            sys.stderr.write(out)
            raise BenchError(f"perfbench exited with code {code}")
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError("perfbench printed nothing")
        result = json.loads(lines[-1])
        check_result(result, spec, args.trace == "1")
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench/run.py: {e}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
