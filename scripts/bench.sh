#!/usr/bin/env bash
# Benchmark orchestrator: builds the bench suite, runs every target, and
# collects the BENCH_<target>.json telemetry records (plus per-target
# stdout logs) into one results directory — the unit that aic_benchdiff
# compares across commits.
#
# Usage:
#   scripts/bench.sh [--smoke] [--out DIR] [--baseline DIR]
#                    [--threshold T] [--filter REGEX]
#
#   --smoke        tiny parameters (AIC_BENCH_SMOKE=1); reproduction
#                  CHECKs become informational. Default: full sizes.
#                  Smoke runs diff against the recorded bench/baselines
#                  seed records by default (they were recorded in smoke
#                  mode), so a perf regression fails the run without any
#                  flags; pass --baseline to override.
#   --out DIR      results directory (default: a timestamped directory
#                  under bench-results/)
#   --baseline DIR after the run, diff against a previous results
#                  directory with aic_benchdiff; bench.sh then exits
#                  nonzero iff the diff reports a regression
#   --threshold T  regression threshold forwarded to aic_benchdiff
#   --filter REGEX only run bench targets whose name matches REGEX
#
# Typical regression workflow:
#   git checkout main      && scripts/bench.sh --out /tmp/base
#   git checkout my-branch && scripts/bench.sh --baseline /tmp/base
set -uo pipefail
cd "$(dirname "$0")/.."

smoke=0
out_dir=""
baseline=""
threshold=""
filter=""
while [[ $# -gt 0 ]]; do
  case "$1" in
  --smoke) smoke=1 ;;
  --out)
    shift
    out_dir="${1:?--out needs a directory}"
    ;;
  --baseline)
    shift
    baseline="${1:?--baseline needs a directory}"
    ;;
  --threshold)
    shift
    threshold="${1:?--threshold needs a value}"
    ;;
  --filter)
    shift
    filter="${1:?--filter needs a regex}"
    ;;
  *)
    echo "usage: scripts/bench.sh [--smoke] [--out DIR] [--baseline DIR]" \
      "[--threshold T] [--filter REGEX]" >&2
    exit 2
    ;;
  esac
  shift
done

[[ -n "$out_dir" ]] || out_dir="bench-results/$(date +%Y%m%d-%H%M%S)"

# Smoke runs gate against the recorded seed baselines by default — they
# were recorded with AIC_BENCH_SMOKE=1, so the parameters match. Full runs
# never default (full-size numbers are not comparable to smoke records).
if [[ -z "$baseline" && "$smoke" == 1 ]] &&
  compgen -G "bench/baselines/BENCH_*.json" >/dev/null; then
  baseline="bench/baselines"
  echo "== bench: defaulting --baseline to bench/baselines =="
fi

jobs="$(nproc)"
echo "== bench: building (jobs=$jobs) =="
if ! cmake -B build -S . >/dev/null || ! cmake --build build -j"$jobs"; then
  echo "bench: build failed" >&2
  exit 2
fi

mkdir -p "$out_dir" || exit 2
echo "== bench: results -> $out_dir (smoke=$smoke) =="

failed=()
ran=0
for b in build/bench/*; do
  [[ -x "$b" ]] || continue
  name="$(basename "$b")"
  [[ -z "$filter" || "$name" =~ $filter ]] || continue
  echo "-- bench: $name"
  args=()
  # Full-size micro runs record five repetitions per benchmark, so
  # aic_benchdiff judges each on a spread rather than on one sample.
  if [[ "$name" == micro_* ]]; then
    if [[ "$smoke" == 1 ]]; then
      args+=(--benchmark_min_time=0.01)
    else
      args+=(--benchmark_repetitions=5)
    fi
  fi
  env_smoke=()
  [[ "$smoke" == 1 ]] && env_smoke=(AIC_BENCH_SMOKE=1)
  if ! env "${env_smoke[@]}" AIC_BENCH_OUT="$out_dir" \
    "$b" "${args[@]}" >"$out_dir/$name.log" 2>&1; then
    failed+=("$name")
    echo "   FAILED (log: $out_dir/$name.log)"
  fi
  ran=$((ran + 1))
done

echo
echo "== bench: $ran target(s), ${#failed[@]} failure(s) =="
if [[ ${#failed[@]} -gt 0 ]]; then
  printf 'bench: failed: %s\n' "${failed[*]}" >&2
  exit 1
fi

if [[ -n "$baseline" ]]; then
  echo "== bench: diff vs $baseline =="
  diff_args=()
  [[ -n "$threshold" ]] && diff_args+=(--threshold "$threshold")
  build/tools_build/aic_benchdiff "${diff_args[@]}" "$baseline" "$out_dir"
  exit $?
fi
echo "bench: OK — compare later with:" \
  "build/tools_build/aic_benchdiff <old> $out_dir"
