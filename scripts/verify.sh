#!/usr/bin/env bash
# PR-time verification matrix (the gate recorded in ROADMAP.md):
#
#   tier1        configure + build with AIC_WERROR=ON (warnings are
#                errors across src/tests/bench/examples/tools) + full
#                ctest suite                                  [build/]
#   lint         scripts/lint.sh — the aic_lint token-level analyzer
#                (grep fallback when unbuildable), plus clang-tidy when
#                installed
#   tsan         concurrency tests under ThreadSanitizer      [build-tsan/]
#   asan+ubsan   the FULL test suite under AddressSanitizer +
#                UndefinedBehaviorSanitizer, plus the aic_lint fixture
#                corpus and hostile inputs driven through the sanitized
#                binary                                       [build-asan/]
#   perfbench    configure + build the end-to-end benchmark (perfbench/,
#                its own CMake package over src/) exactly as
#                perfbench/run.py does, so a src/ API change that breaks
#                the benchmark fails here, not in a benchmark run
#                                                 [.bench_build/perfbench/]
#
# A separate bench-smoke leg builds every bench target and runs each with
# AIC_BENCH_SMOKE=1 (tiny parameters, reproduction CHECKs informational):
# it gates on crashes and bit-rot in the bench mains, not on reproducing
# the paper's shapes at toy sizes. Each run must also emit a schema-valid
# BENCH_<target>.json telemetry record (validated with aic_benchdiff
# --check), and a self-vs-self aic_benchdiff over the set must report zero
# regressions — the tautology case that catches diff-pipeline bit-rot.
#
# Usage:
#   scripts/verify.sh               # full matrix (identical to --matrix)
#   scripts/verify.sh --matrix      # full matrix + per-leg summary table
#   scripts/verify.sh --tier1-only  # just tier1 + lint (fast local loop)
#   scripts/verify.sh --bench-smoke # bench targets only, tiny parameters
#
# Every leg runs even if an earlier one fails; the summary prints one line
# per leg and the exit status is nonzero iff any leg failed.
set -uo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc)"
mode="${1:-}"

declare -a leg_names=() leg_results=()
record() { # record <leg> <status> <detail>
  leg_names+=("$1")
  leg_results+=("$2	$3")
}

ctest_passed() { # parses "100% tests passed, 0 tests failed out of 302"
  grep -oE '[0-9]+% tests passed.*out of [0-9]+' "$1" | tail -1
}

run_tier1() {
  echo "== tier1: -Werror build + full test suite =="
  local log
  log=$(mktemp)
  if cmake -B build -S . -DAIC_WERROR=ON >/dev/null &&
    cmake --build build -j"$jobs" &&
    ctest --test-dir build --output-on-failure -j"$jobs" | tee "$log"; then
    record tier1 OK "$(ctest_passed "$log"), -Werror clean"
  else
    record tier1 FAIL "see output above"
  fi
  rm -f "$log"
}

run_lint() {
  echo "== lint: aic_lint analyzer + clang-tidy =="
  if scripts/lint.sh; then
    record lint OK "clean"
  else
    record lint FAIL "see output above"
  fi
}

run_tsan() {
  echo "== tsan: concurrency tests under ThreadSanitizer =="
  local log
  log=$(mktemp)
  # Only the test binary: benchmarks/examples don't add TSan coverage.
  # The suites from RestartEngine on restore a chain, recover from the
  # store or materialize an image: work that runs on the restore pool.
  local suites='ThreadPool|Parallel|Async|UnchangedFastPath|Xfer|Obs|Correcting'
  suites+='|Fleet|Lanl|Elastic|Rewind|Timeseries|Slo|Causal'
  suites+='|RestartEngine|RestoreErrorPaths|ChainFixture|CheckpointV3'
  suites+='|CheckpointFile|MultiLevelStore|Raid5|Snapshot|FailureSim'
  suites+='|ChainVerifier|ParallelRestore|RestorePool'
  if cmake -B build-tsan -S . -DAIC_SANITIZE=thread >/dev/null &&
    cmake --build build-tsan -j"$jobs" --target aic_tests &&
    ctest --test-dir build-tsan --output-on-failure -j"$jobs" \
      -R "$suites" | tee "$log"; then
    record tsan OK "$(ctest_passed "$log")"
  else
    record tsan FAIL "see output above"
  fi
  rm -f "$log"
}

# aic_lint under the sanitizers: the lexer's hostile-input totality claim,
# checked where it bites. Exit codes are part of the contract — 1 for
# findings on both fixture trees, 0 for the clean self-scan.
lint_fixtures_sanitized() {
  local lint=build-asan/tools_build/aic_lint
  "$lint" --root tests/analysis/corpus >/dev/null
  if [[ $? -ne 1 ]]; then
    echo "aic_lint(asan): corpus scan should exit 1 (findings)"
    return 1
  fi
  "$lint" --root tests/analysis/hostile >/dev/null
  if [[ $? -ne 1 ]]; then
    echo "aic_lint(asan): hostile scan should exit 1 (lex-errors)"
    return 1
  fi
  if ! "$lint" --root . >/dev/null; then
    echo "aic_lint(asan): self-scan should be clean against the baseline"
    return 1
  fi
  echo "-- aic_lint fixture/hostile/self scans clean under ASan+UBSan"
}

# aic_top under the sanitizers: record a small fleet run, then render and
# replay it — the whole telemetry JSON path (write, parse, render) on real
# recorded data.
aic_top_sanitized() {
  local top=build-asan/tools_build/aic_top
  local dir
  dir=$(mktemp -d)
  if ! "$top" --demo --jobs 40 --out "$dir" >/dev/null; then
    echo "aic_top(asan): demo run failed"
    rm -rf "$dir"
    return 1
  fi
  if ! "$top" --top 5 "$dir/telemetry.json" >/dev/null ||
    ! "$top" --follow "$dir/telemetry.json" >/dev/null; then
    echo "aic_top(asan): render/replay of the recorded run failed"
    rm -rf "$dir"
    return 1
  fi
  rm -rf "$dir"
  echo "-- aic_top demo + recorded-run render clean under ASan+UBSan"
}

run_asan_ubsan() {
  echo "== asan+ubsan: full test suite under ASan + UBSan =="
  local log
  log=$(mktemp)
  if cmake -B build-asan -S . -DAIC_SANITIZE=address,undefined >/dev/null &&
    cmake --build build-asan -j"$jobs" \
      --target aic_tests aic_fsck aic_report aic_benchdiff aic_lint aic_top \
      example_quickstart example_multilevel_storage \
      example_failure_injection &&
    ctest --test-dir build-asan --output-on-failure -j"$jobs" | tee "$log" &&
    lint_fixtures_sanitized &&
    aic_top_sanitized; then
    record "asan+ubsan" OK "$(ctest_passed "$log"), aic_lint + aic_top clean"
  else
    record "asan+ubsan" FAIL "see output above"
  fi
  rm -f "$log"
}

run_perfbench() {
  echo "== perfbench: build the end-to-end benchmark =="
  local dir=.bench_build/perfbench
  local bench_jobs=$((jobs < 4 ? jobs : 4))
  if cmake -S perfbench -B "$dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    >/dev/null && cmake --build "$dir" -j"$bench_jobs" &&
    [[ -x "$dir/perfbench" ]]; then
    record perfbench OK "built $dir/perfbench"
  else
    record perfbench FAIL "see output above"
  fi
}

run_bench_smoke() {
  echo "== bench-smoke: all bench targets at tiny parameters =="
  if ! cmake -B build -S . >/dev/null || ! cmake --build build -j"$jobs"; then
    record bench-smoke FAIL "build failed"
    return
  fi
  local out_dir
  out_dir=$(mktemp -d)
  local failed=() ran=0
  for b in build/bench/*; do
    [[ -x "$b" ]] || continue
    local name
    name="$(basename "$b")"
    echo "-- bench-smoke: $name"
    if [[ "$name" == micro_* ]]; then
      AIC_BENCH_SMOKE=1 AIC_BENCH_OUT="$out_dir" \
        "$b" --benchmark_min_time=0.01 >/dev/null || failed+=("$name")
    else
      AIC_BENCH_SMOKE=1 AIC_BENCH_OUT="$out_dir" "$b" >/dev/null ||
        failed+=("$name")
    fi
    [[ -f "$out_dir/BENCH_$name.json" ]] || failed+=("$name(no-record)")
    ran=$((ran + 1))
  done
  # Telemetry gate: every record parses, and self-vs-self diffs clean.
  if [[ ${#failed[@]} -eq 0 ]]; then
    build/tools_build/aic_benchdiff --check "$out_dir" >/dev/null ||
      failed+=("benchdiff-check")
    build/tools_build/aic_benchdiff "$out_dir" "$out_dir" >/dev/null ||
      failed+=("benchdiff-self")
  fi
  if [[ ${#failed[@]} -eq 0 ]]; then
    record bench-smoke OK \
      "$ran bench target(s) ran clean, telemetry records valid"
  else
    record bench-smoke FAIL "crashed/nonzero: ${failed[*]}"
  fi
  rm -rf "$out_dir"
}

case "$mode" in
"" | --matrix)
  run_tier1
  run_lint
  run_tsan
  run_asan_ubsan
  run_perfbench
  run_bench_smoke
  ;;
--tier1-only)
  run_tier1
  run_lint
  ;;
--bench-smoke)
  run_bench_smoke
  ;;
*)
  echo "usage: scripts/verify.sh [--matrix|--tier1-only|--bench-smoke]" >&2
  exit 2
  ;;
esac

echo
echo "== verify matrix summary =="
status=0
for i in "${!leg_names[@]}"; do
  IFS=$'\t' read -r result detail <<<"${leg_results[$i]}"
  printf '%-12s %-5s %s\n' "${leg_names[$i]}" "$result" "$detail"
  [[ "$result" == OK ]] || status=1
done
[[ "$status" == 0 ]] && echo "verify: OK" || echo "verify: FAILED"
exit "$status"
