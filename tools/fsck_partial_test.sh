#!/usr/bin/env bash
# Tool-level test for aic_fsck's staged-partial semantics.
#
# A "<key>.partial" file in a chain directory is a record a file-backed
# store had not finished writing — NOT corruption. The same garbage bytes
# under a non-partial name ARE corruption. aic_fsck must tell the two
# apart: distinct diagnostic + exit 0 for the partial, error + exit 1 for
# the impostor record.
#
# Usage: fsck_partial_test.sh <path-to-aic_fsck>
set -u

fsck="${1:?usage: fsck_partial_test.sh <path-to-aic_fsck>}"
if [[ ! -x "$fsck" ]]; then
  echo "aic_fsck binary not built in this configuration; skipping"
  exit 127
fi

dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
fail() {
  echo "FAIL: $*"
  exit 1
}

# Case 1: directory holding only a staged partial -> clean, distinct note.
printf 'torn mid-chunk bytes' >"$dir/ckpt-7.partial"
out="$("$fsck" "$dir")"
rc=$?
echo "$out"
[[ $rc -eq 0 ]] || fail "partial-only directory must exit 0, got $rc"
grep -q 'staged-partial' <<<"$out" ||
  fail "missing staged-partial diagnostic"
grep -q '1 staged partial(s)' <<<"$out" ||
  fail "summary must count staged partials"
grep -q 'clean' <<<"$out" || fail "partial-only directory must be clean"

# Case 2: the same bytes as a regular record name -> corruption, exit 1.
mv "$dir/ckpt-7.partial" "$dir/ckpt-7"
out="$("$fsck" "$dir")"
rc=$?
echo "$out"
[[ $rc -eq 1 ]] || fail "garbage chain record must exit 1, got $rc"
grep -q 'CORRUPT' <<<"$out" || fail "garbage record must report CORRUPT"

echo "fsck_partial_test: OK"
