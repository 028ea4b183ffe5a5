#!/usr/bin/env bash
# Golden equivalence check for the parallel fault-simulation campaign
# engine: regenerate the small-config Table 3, isolation, and Monte Carlo
# fab-fleet reports at two different worker counts and diff them against
# the committed golden files, and rebuild the small fault dictionary and
# check its CSV against the committed digest (results/dict_small.sha256).
# Any drift — numeric or ordering — fails the build. Timings are suppressed
# (-timing=false) so the outputs are byte-stable.
#
# A second pass checks interrupt-resume equivalence: each run is "killed"
# at roughly 50% of its campaign work by the deterministic chaos budget
# (-chaos-cancel-after, a stand-in for Ctrl-C that CI can time exactly),
# must exit 130 with a flushed checkpoint journal, and the -resume rerun —
# at a *different* worker count — must reproduce the goldens byte for byte.
# A last pair is a real crash: a journaled dictionary build is killed with
# SIGKILL once its journal is non-empty, so nothing is flushed on the way
# out, and the resume must still reproduce the dictionary digest.
#
# Usage: scripts/check-golden.sh [worker counts...]   (default: 1 4)
set -euo pipefail
cd "$(dirname "$0")/.."

workers=("$@")
if [ ${#workers[@]} -eq 0 ]; then
    workers=(1 4)
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/rescue-atpg" ./cmd/rescue-atpg
go build -o "$tmp/rescue-isolate" ./cmd/rescue-isolate
go build -o "$tmp/rescue-fab" ./cmd/rescue-fab
go build -o "$tmp/rescue-dict" ./cmd/rescue-dict

fail=0
dict_sha=$(cut -d' ' -f1 results/dict_small.sha256)
# check_dict CSV LABEL: the dictionary CSV must match the committed digest.
check_dict() {
    local got
    got=$(sha256sum "$1" | cut -d' ' -f1)
    if [ "$got" != "$dict_sha" ]; then
        echo "FAIL: dictionary CSV digest $got != results/dict_small.sha256 ($2)" >&2
        fail=1
    fi
}

for w in "${workers[@]}"; do
    echo "== table3 (small), workers=$w"
    "$tmp/rescue-atpg" -small -timing=false -workers "$w" > "$tmp/table3_small.txt"
    if ! diff -u results/table3_small.txt "$tmp/table3_small.txt"; then
        echo "FAIL: table3_small.txt drifted at workers=$w" >&2
        fail=1
    fi

    echo "== isolation (small), workers=$w"
    "$tmp/rescue-isolate" -small -per-stage 200 -multi -timing=false -workers "$w" > "$tmp/isolation_small.txt"
    if ! diff -u results/isolation_small.txt "$tmp/isolation_small.txt"; then
        echo "FAIL: isolation_small.txt drifted at workers=$w" >&2
        fail=1
    fi

    echo "== fab fleet (small), workers=$w"
    "$tmp/rescue-fab" -small -dies 2000 -timing=false -workers "$w" > "$tmp/fab_small.txt"
    if ! diff -u results/fab_small.txt "$tmp/fab_small.txt"; then
        echo "FAIL: fab_small.txt drifted at workers=$w" >&2
        fail=1
    fi

    echo "== dictionary (small), workers=$w"
    "$tmp/rescue-dict" build -small -workers "$w" -o "$tmp/dict_small.csv" > /dev/null
    check_dict "$tmp/dict_small.csv" "workers=$w"
done

# ~50% of each command's total campaign fault-sims on the small config
# (rescue-atpg ≈ 134k across both variants; rescue-isolate ≈ 89k;
# rescue-fab spends ≈ 86.7k sims in ATPG before its 1536-fault fleet
# campaign, so 87.5k lands halfway through the fleet; rescue-dict runs the
# same ATPG before its 18,866-fault dictionary campaign, so 96.1k lands
# halfway through the dictionary).
atpg_kill=67000
iso_kill=45000
fab_kill=87500
dict_kill=96100

for pair in "1 4" "4 1"; do
    read -r kw rw <<< "$pair"

    echo "== table3 interrupt-resume: kill at workers=$kw, resume at workers=$rw"
    rm -f "$tmp/ck.atpg"
    rc=0
    "$tmp/rescue-atpg" -small -timing=false -workers "$kw" \
        -checkpoint "$tmp/ck.atpg" -chaos-cancel-after "$atpg_kill" \
        > /dev/null 2> "$tmp/atpg.err" || rc=$?
    if [ "$rc" -ne 130 ]; then
        echo "FAIL: chaos-interrupted rescue-atpg exited $rc, want 130" >&2
        cat "$tmp/atpg.err" >&2
        fail=1
    elif [ ! -s "$tmp/ck.atpg" ]; then
        echo "FAIL: interrupted rescue-atpg left no checkpoint journal" >&2
        fail=1
    else
        "$tmp/rescue-atpg" -small -timing=false -workers "$rw" \
            -checkpoint "$tmp/ck.atpg" -resume > "$tmp/table3_resumed.txt"
        if ! diff -u results/table3_small.txt "$tmp/table3_resumed.txt"; then
            echo "FAIL: resumed table3_small.txt drifted (kill=$kw resume=$rw)" >&2
            fail=1
        fi
    fi

    echo "== isolation interrupt-resume: kill at workers=$kw, resume at workers=$rw"
    rm -f "$tmp/ck.iso"
    rc=0
    "$tmp/rescue-isolate" -small -per-stage 200 -multi -timing=false -workers "$kw" \
        -checkpoint "$tmp/ck.iso" -chaos-cancel-after "$iso_kill" \
        > /dev/null 2> "$tmp/iso.err" || rc=$?
    if [ "$rc" -ne 130 ]; then
        echo "FAIL: chaos-interrupted rescue-isolate exited $rc, want 130" >&2
        cat "$tmp/iso.err" >&2
        fail=1
    elif [ ! -s "$tmp/ck.iso" ]; then
        echo "FAIL: interrupted rescue-isolate left no checkpoint journal" >&2
        fail=1
    else
        "$tmp/rescue-isolate" -small -per-stage 200 -multi -timing=false -workers "$rw" \
            -checkpoint "$tmp/ck.iso" -resume > "$tmp/isolation_resumed.txt"
        if ! diff -u results/isolation_small.txt "$tmp/isolation_resumed.txt"; then
            echo "FAIL: resumed isolation_small.txt drifted (kill=$kw resume=$rw)" >&2
            fail=1
        fi
    fi

    echo "== fab interrupt-resume: kill at workers=$kw, resume at workers=$rw"
    rm -f "$tmp/ck.fab"
    rc=0
    "$tmp/rescue-fab" -small -dies 2000 -timing=false -workers "$kw" \
        -checkpoint "$tmp/ck.fab" -chaos-cancel-after "$fab_kill" \
        > /dev/null 2> "$tmp/fab.err" || rc=$?
    if [ "$rc" -ne 130 ]; then
        echo "FAIL: chaos-interrupted rescue-fab exited $rc, want 130" >&2
        cat "$tmp/fab.err" >&2
        fail=1
    elif [ ! -s "$tmp/ck.fab" ]; then
        echo "FAIL: interrupted rescue-fab left no checkpoint journal" >&2
        fail=1
    else
        "$tmp/rescue-fab" -small -dies 2000 -timing=false -workers "$rw" \
            -checkpoint "$tmp/ck.fab" -resume > "$tmp/fab_resumed.txt"
        if ! diff -u results/fab_small.txt "$tmp/fab_resumed.txt"; then
            echo "FAIL: resumed fab_small.txt drifted (kill=$kw resume=$rw)" >&2
            fail=1
        fi
    fi

    echo "== dictionary interrupt-resume: kill at workers=$kw, resume at workers=$rw"
    rm -f "$tmp/ck.dict" "$tmp/dict_resumed.csv"
    rc=0
    "$tmp/rescue-dict" build -small -workers "$kw" \
        -checkpoint "$tmp/ck.dict" -chaos-cancel-after "$dict_kill" \
        -o "$tmp/dict_resumed.csv" > /dev/null 2> "$tmp/dict.err" || rc=$?
    if [ "$rc" -ne 130 ]; then
        echo "FAIL: chaos-interrupted rescue-dict exited $rc, want 130" >&2
        cat "$tmp/dict.err" >&2
        fail=1
    elif [ ! -s "$tmp/ck.dict" ]; then
        echo "FAIL: interrupted rescue-dict left no checkpoint journal" >&2
        fail=1
    else
        "$tmp/rescue-dict" build -small -workers "$rw" \
            -checkpoint "$tmp/ck.dict" -resume -o "$tmp/dict_resumed.csv" > /dev/null
        check_dict "$tmp/dict_resumed.csv" "resumed, kill=$kw resume=$rw"
    fi
done

echo "== dictionary real-crash resume: kill -9 at workers=1, resume at workers=4"
rm -f "$tmp/ck.crash" "$tmp/dict_crash.csv"
"$tmp/rescue-dict" build -small -workers 1 -checkpoint "$tmp/ck.crash" \
    -o "$tmp/dict_crash.csv" > /dev/null 2>&1 &
pid=$!
while kill -0 "$pid" 2> /dev/null && [ ! -s "$tmp/ck.crash" ]; do
    sleep 0.01
done
kill -9 "$pid" 2> /dev/null || true
rc=0
wait "$pid" 2> /dev/null || rc=$?
if [ "$rc" -ne 137 ]; then
    echo "FAIL: rescue-dict exited $rc before kill -9 landed, so no crashed journal was resumed" >&2
    fail=1
else
    "$tmp/rescue-dict" build -small -workers 4 \
        -checkpoint "$tmp/ck.crash" -resume -o "$tmp/dict_crash.csv" > /dev/null
    check_dict "$tmp/dict_crash.csv" "resumed after kill -9"
fi

if [ "$fail" -ne 0 ]; then
    echo "golden check FAILED" >&2
    exit 1
fi
echo "golden check OK: outputs identical to committed results (dictionary digest included) at workers: ${workers[*]}, interrupt-resume and kill -9 resume included"
