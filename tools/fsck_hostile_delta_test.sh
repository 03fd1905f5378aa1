#!/usr/bin/env bash
# Tool-level test: aic_fsck on greedy delta records with hostile headers.
#
# A record's CRC only proves the bytes are the ones that were written, not
# that they make sense: a chain can carry a valid-CRC kIncrementalDelta
# record whose per-page XDelta3 stream is hostile. Each case below must be
# reported as a [delta-undecodable] diagnostic with exit 1 — never an
# abort, an over-read or an unchecked allocation:
#
#   wrap-small  COPY off = 2^64-1, len = 2: off + len wraps to 1
#   wrap-large  COPY off = 2^64-2^40, len = 2^40+1: off + len wraps to 1
#   huge-target header target_size = 2^62 ahead of a 3-byte ADD
#   dup-page    two well-formed delta records for page 0 in one payload,
#               which restore rejects whichever record would win
#
# A control case with a well-formed delta must come out clean (exit 0),
# which shows the records below are built the way the reader expects.
#
# Usage: fsck_hostile_delta_test.sh <path-to-aic_fsck>
set -u

fsck="${1:?usage: fsck_hostile_delta_test.sh <path-to-aic_fsck>}"
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

# write_chain <dir> <case>: ckpt-0 is a one-page full record, ckpt-1 an
# incremental delta record whose page carries the case's XDelta3 stream
# (dup-page: two records, each with the control stream).
write_chain() {
  python3 - "$1" "$2" <<'EOF'
import struct
import sys

PAGE = 4096
MAGIC_V2 = b"AAICCKT2"  # little-endian image of the v2 magic constant


def varint(v):
    out = bytearray()
    while v >= 0x80:
        out.append((v & 0x7F) | 0x80)
        v >>= 7
    out.append(v)
    return bytes(out)


def crc32c(data):
    crc = 0xFFFFFFFF
    for b in data:
        crc ^= b
        for _ in range(8):
            crc = (crc >> 1) ^ (0x82F63B78 & -(crc & 1))
    return crc ^ 0xFFFFFFFF


def record(kind, seq, payload):
    body = (bytes([kind]) + varint(seq) + struct.pack("<d", float(seq)) +
            varint(0) + varint(0) + varint(len(payload)) + payload)
    return MAGIC_V2 + struct.pack("<I", crc32c(body)) + body


out_dir, case = sys.argv[1], sys.argv[2]
header = lambda target_size: varint(PAGE) + varint(target_size)
streams = {
    "control": header(PAGE) + b"\x00" + varint(PAGE) + bytes(PAGE),
    "wrap-small": header(2) + b"\x01" + varint(2**64 - 1) + varint(2),
    "wrap-large": header(2**40 + 1) + b"\x01" + varint(2**64 - 2**40) +
                  varint(2**40 + 1),
    "huge-target": header(2**62) + b"\x00" + varint(3) + b"abc",
}
streams["dup-page"] = streams["control"]
delta = streams[case]
copies = 2 if case == "dup-page" else 1
full = varint(1) + varint(0) + bytes([7]) * PAGE  # page 0, raw
page_delta = varint(copies) + (
    varint(0) + b"\x01" + varint(len(delta)) + delta) * copies
with open(f"{out_dir}/ckpt-0", "wb") as f:
    f.write(record(0, 0, full))  # kFull
with open(f"{out_dir}/ckpt-1", "wb") as f:
    f.write(record(2, 1, page_delta))  # kIncrementalDelta
EOF
}

mkdir "$dir/control"
write_chain "$dir/control" control || fail "could not write the control chain"
out="$("$fsck" "$dir/control")"
rc=$?
echo "$out"
[[ $rc -eq 0 ]] || fail "well-formed control chain must exit 0, got $rc"

for case in wrap-small wrap-large huge-target dup-page; do
  mkdir "$dir/$case"
  write_chain "$dir/$case" "$case" || fail "could not write chain $case"
  out="$("$fsck" "$dir/$case" 2>&1)"
  rc=$?
  echo "$out"
  [[ $rc -eq 1 ]] || fail "$case: hostile delta must exit 1, got $rc"
  grep -q 'delta-undecodable' <<<"$out" ||
    fail "$case: missing [delta-undecodable] diagnostic"
  grep -q 'parse-error' <<<"$out" &&
    fail "$case: the record's CRC is valid, so it must parse"
done

echo "fsck_hostile_delta_test: OK"
