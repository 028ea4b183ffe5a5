#!/usr/bin/env bash
# End-to-end smoke test for rescue-sweep design-space exploration:
#
#   1. build rescue-sweep
#   2. determinism: the same tiny grid run twice (sequential, then
#      concurrent) must produce byte-identical frontier NDJSON
#   3. kill-and-resume: the same grid chaos-killed mid-campaign must exit
#      130 and leave a journal; rerunning with -resume must complete and
#      produce NDJSON byte-identical to the uninterrupted runs
#   4. flag validation: bad grids are usage errors (exit 2) before any work,
#      including machine shapes the simulator could never finish (a
#      compaction buffer filling the new issue-queue half, an empty ROB
#      or LSQ)
#
# Usage: scripts/sweep-smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
cleanup() { rm -rf "$tmp"; }
trap cleanup EXIT

echo "== build"
go build -o "$tmp/rescue-sweep" ./cmd/rescue-sweep

grid=(-small -preset paper -axis chipkill-scale=1,0.8 -dies 200 -warmup 200 -commit 1000 -quiet)

echo "== determinism: same grid at concurrency 1 and 4"
"$tmp/rescue-sweep" "${grid[@]}" -concurrency 1 -ndjson "$tmp/seq.ndjson" >"$tmp/seq.txt"
"$tmp/rescue-sweep" "${grid[@]}" -concurrency 4 -ndjson "$tmp/par.ndjson" >"$tmp/par.txt"
cmp "$tmp/seq.ndjson" "$tmp/par.ndjson"
cmp "$tmp/seq.txt" "$tmp/par.txt"
points=$(wc -l <"$tmp/seq.ndjson")
if [ "$points" -ne 2 ]; then
    echo "FAIL: frontier has $points points, want 2" >&2
    cat "$tmp/seq.ndjson" >&2
    exit 1
fi
echo "   $points points, byte-identical across concurrency"

echo "== kill-and-resume: chaos cancel mid-campaign, then -resume"
rc=0
"$tmp/rescue-sweep" "${grid[@]}" -checkpoint "$tmp/ck" -chaos-cancel-after 400 \
    -ndjson "$tmp/killed.ndjson" >/dev/null 2>"$tmp/killed.err" || rc=$?
if [ "$rc" -ne 130 ]; then
    echo "FAIL: chaos-killed sweep exited $rc, want 130" >&2
    cat "$tmp/killed.err" >&2
    exit 1
fi
if [ ! -f "$tmp/ck/campaigns.ck" ]; then
    echo "FAIL: no campaign journal left behind after the kill" >&2
    ls -la "$tmp/ck" >&2 || true
    exit 1
fi
grep -q 'rerun with -resume' "$tmp/killed.err" || {
    echo "FAIL: interrupted sweep printed no resume hint" >&2
    cat "$tmp/killed.err" >&2
    exit 1
}
"$tmp/rescue-sweep" "${grid[@]}" -checkpoint "$tmp/ck" -resume \
    -ndjson "$tmp/resumed.ndjson" >/dev/null 2>"$tmp/resumed.err"
cmp "$tmp/seq.ndjson" "$tmp/resumed.ndjson"
if [ -f "$tmp/ck/frontier.journal" ] || [ -f "$tmp/ck/campaigns.ck" ]; then
    echo "FAIL: journals left behind after a clean resumed completion" >&2
    exit 1
fi
echo "   resume byte-identical, journals consumed"

echo "== flag validation: bad grids fail fast with exit 2"
for args in "-preset nope" "-axis bogus=1" "-node 45" "-resume" \
    "-axis comp-buf=18" "-axis rob-size=0" "-axis lsq-size=0"; do
    rc=0
    # shellcheck disable=SC2086
    "$tmp/rescue-sweep" $args >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "FAIL: rescue-sweep $args exited $rc, want 2" >&2
        exit 1
    fi
done
echo "   usage errors exit 2"

echo "PASS: sweep smoke (determinism + kill/resume byte-identical)"
