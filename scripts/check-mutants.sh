#!/usr/bin/env bash
# Mutation check for the verification net: inject hand-picked single-line
# mutants into the simulator hot path — the cone builder, the clipped and
# full event walks, the excitation-skip index, the epoch arena, and the
# campaign's word and detection counts — into PODEM's event-driven
# implication, its fault-region trim, its per-worker state reuse and the
# in-order commit of parallel searches,
# into the netlist's compiled Flat form both read, into the cycle
# simulator's completion heap and idle fast-forward, into the performance
# model's collapse of FP-inert degraded configurations, and into the
# append-only checkpoint journal's torn-tail recovery, and require that
# the differential harness or the targeted unit tests catch every one. A
# surviving mutant means the net has a blind spot — the build fails.
#
# Each mutant is a sed substitution against one source file (internal/fault
# unless marked atpg, core, netlist or uarch), chosen to break a distinct
# mechanism:
#    1 sim.go      off-by-one: drop the last level bucket from the full walk
#    2 sim.go      inverted obs-epoch guard: FailObs dedup records nothing
#    3 sim.go      inverted lane mask: clipped path observes only padding lanes
#    4 sim.go      inverted event filter: full walk propagates only unchanged outputs
#    5 sim.go      wrong stuck polarity: stuck-at-1 injects a single-lane constant
#    6 cone.go     threshold comparison flip: exactly-threshold cones overflow
#    7 cone.go     level-sort comparator flip: cone schedule evaluates gates
#                  before their feeders
#    8 cone.go     downstream-obs flag forced false: clipped propagation never
#                  leaves the seed net
#    9 sim.go      reader CSR off-by-one: clipped walk skips the seed net's
#                  first reading gate
#   10 sim.go      SoA index transposition: good-image read flips net-major
#                  to word-major
#   11 sim.go      excitation polarity swap on the per-net rows
#   12 sim.go      excitation row swap on the exact per-pin flip rows
#   13 sim.go      epoch-overflow reset guard disabled
#   14 sim.go      arena epoch-clear skip: reset rewinds counters but leaves
#                  stale marks
#   15 sim.go      excitable-word loop drops its count of trailing dead
#                  words: a full-syndrome run enters fewer than every word
#   16 campaign.go simChunk stops counting detected faults in Stats
#   17 atpg podem.go readers of a changed gate output never scheduled
#   18 atpg podem.go "changed?" test compares only the good plane
#   19 atpg podem.go D-frontier walked in level order, not gate-ID order
#   20 atpg podem.go faulty plane not updated for a changed PI
#   21 netlist netlist.go Flat compiles AND gates as OR
#   22 uarch sim.go  completion heap pop skips the doneCycle re-check: a
#                  squashed-then-reissued instruction finishes early
#   23 uarch sim.go  completion heap sifts up as a max-heap
#   24 uarch sim.go  fast-forward adds k-1 cycles to the occupancy sums
#   25 uarch sim.go  fast-forward adds k-1 cycles to the dispatch stall
#   26 uarch sim.go  issue-queue hold expiry left out of the event set
#   27 uarch sim.go  fetchStallTill left out of the event set
#   28 atpg gen.go   commit loop stops skipping faults a flush already
#                  dropped: their discarded searches are committed again
#   29 atpg podem.go reset leaves the faulty plane of the previous fault
#                  stale
#   30 checkpoint.go loading skips the truncate: the next append lands
#                  after a torn final line
#   31 checkpoint.go a range record names its section by in-memory slice
#                  position instead of file ordinal
#   32 atpg podem.go the region walk marks a gate's input drivers but does
#                  not descend into them
#   33 atpg podem.go an FF-output fault's D driver is not seeded into its
#                  region
#   34 atpg podem.go schedule drops its region test: imply evaluates the
#                  whole netlist again
#   35 core perf.go  the perf model drops its UsesFP guard: a benchmark
#                  with FP ops shares one simulation across FP-degraded
#                  configurations too
#   36 uarch params.go IntOnly also clears LSQHalvesDown, a knob that does
#                  change results
#
# Catchers, in order: the differential harness (fast, runs first: sim vs
# oracle, PODEM cubes P5, untestable verdicts P8), then the mutated
# package's targeted unit tests — the cone/epoch/excitation tests and the
# campaign word and detection counts for mutants whose Results stay
# byte-identical (6, 13, 14, 15, 16) or that need low-lane patterns to
# discriminate (11, 12); for PODEM, the implication
# lockstep, the pinned Table 3 counts and test-set digests at 1, 2 and
# 8 workers, and the frontier-order test (19 leaves both small designs'
# test sets unchanged, so only a circuit whose gate-ID and level orders
# disagree exposes it). Mutants 28 and 29 leave every single PODEM run
# correct, so the differential harness cannot see them; 28 moves the
# Baseline counts (vectors 2635 -> 2803, detected 13325 -> 13501) and 29
# moves both test-set digests. Mutants 30 and 31 never touch a result the
# harness compares (its kill-and-resume check P3 flushes cleanly and binds
# one section); they fall to the torn-tail resume test, whose reload of a
# resumed torn journal fails on the unterminated fragment (30) or finds a
# range filed under the other section once content-addressed binding has
# reordered the sections in memory (31). Mutants 32 and 33 shrink PODEM's
# region below what the search reads: the harness sees wrong cubes or
# verdicts, and the region fixpoint test and the poisoned-region runs see
# the region itself. Mutant 34 changes no verdict, cube or
# lockstep-compared net; only the region-only test's check that every net
# outside the region stays X catches it.
# Mutant 21 should fall to the differential harness: its oracle evaluates
# the netlist's Gate records, not Flat, so a bad compile shows up as a
# simulator/oracle disagreement. The cycle-simulator mutants fall to the
# lockstep test against the per-cycle reference loop (same commit trace,
# Stats and Occupancy), except 22, whose stale-completion case is too rare
# in real streams and has its own unit test. Mutants 35 and 36 leave every
# simulation correct and merge machines that differ: 35 falls to the perf
# model's bit-for-bit check against direct simulation of every job, 36 to
# the invariance test's check that IntOnly maps each FP variant to the
# configuration it ran against.
#
# Usage: scripts/check-mutants.sh [seed range, default 0:40]
set -euo pipefail
cd "$(dirname "$0")/.."

range="${1:-0:40}"
files=(internal/fault/sim.go internal/fault/cone.go internal/fault/campaign.go internal/fault/checkpoint.go internal/atpg/podem.go internal/atpg/gen.go internal/netlist/netlist.go internal/uarch/sim.go internal/uarch/params.go internal/core/perf.go)
declare -A unit_run=(
  [internal/fault]='Cone|Epoch|ManyWords|Excitation|Drop|Overflow|Determinism|TornTail'
  [internal/atpg]='Lockstep|PinnedCounts|FrontierOrder|Region'
  [internal/netlist]='LevelsAndReaders|TruthTables|Equiv'
  [internal/uarch]='Lockstep|StaleCompletion|IntOnly'
  [internal/core]='PerfModelCollapse'
)

# target file|sed substitution
mutants=(
  'internal/fault/sim.go|s/for lv := int32(0); lv <= c.fl.MaxLevel \&\& !capped; lv++/for lv := int32(0); lv < c.fl.MaxLevel \&\& !capped; lv++/'
  'internal/fault/sim.go|s/if scr.obsEp\[oi\] != scr.runEp {/if scr.obsEp[oi] == scr.runEp {/'
  'internal/fault/sim.go|s/(faulty ^ c.goodRespT\[int(oi)\*st+w\]) \& mask/(faulty ^ c.goodRespT[int(oi)*st+w]) \&^ mask/'
  'internal/fault/sim.go|s/if (v^good\[out\])\&mask == 0 {/if (v^good[out])\&mask != 0 {/'
  'internal/fault/sim.go|s/stuckWord = \^uint64(0)/stuckWord = 1/'
  'internal/fault/cone.go|s/if len(gbuf) > threshold {/if len(gbuf) >= threshold {/'
  'internal/fault/cone.go|s/cmp.Compare(c.fl.Level\[a\], c.fl.Level\[b\])/cmp.Compare(c.fl.Level[b], c.fl.Level[a])/'
  'internal/fault/cone.go|s/c.coneDownObs\[net\] = down/c.coneDownObs[net] = down \&\& false/'
  'internal/fault/sim.go|s/for j := c.fl.RdrOff\[seedNet\]; j < c.fl.RdrOff\[seedNet+1\]; j++ {/for j := c.fl.RdrOff[seedNet] + 1; j < c.fl.RdrOff[seedNet+1]; j++ {/'
  'internal/fault/sim.go|s/return c.goodT\[int(in)\*st+w\]/return c.goodT[int(in)+st*w]/'
  'internal/fault/sim.go|s/exRow = c.exNetHas0\[/exRow = c.exNetHas1[/'
  'internal/fault/sim.go|s/exRow = c.exPinFlip1\[/exRow = c.exPinFlip0[/'
  'internal/fault/sim.go|s/if scr.curEp >= epochResetLimit || scr.runEp >= epochResetLimit {/if false {/'
  'internal/fault/sim.go|s/for i := range scr.slab {/for i := range scr.slab[:0] {/'
  'internal/fault/sim.go|s/scr.words += int64(to - prev)/_ = prev/'
  'internal/fault/campaign.go|s/wst.Detected += int64(detected)/_ = detected/'
  'internal/atpg/podem.go|s/p.scheduleReaders(out)/_ = out/'
  'internal/atpg/podem.go|s/if gv == p.good\[out\] \&\& bv == p.bad\[out\] {/if gv == p.good[out] {/'
  'internal/atpg/podem.go|s/slices.Sort(p.cone)/slices.SortStableFunc(p.cone, func(a, b netlist.GateID) int { return int(p.fl.Level[a] - p.fl.Level[b]) })/'
  'internal/atpg/podem.go|s/p.bad\[net\] = bv/_ = bv/'
  'internal/netlist/netlist.go|s/f.Kind\[gi\] = g.Kind/f.Kind[gi] = max(g.Kind, Or)/'
  'internal/uarch/sim.go|s/pop().rob\]; e.present \&\& e.state == issued \&\& e.doneCycle <= s.now {/pop().rob]; e.present \&\& e.state == issued {/'
  'internal/uarch/sim.go|s/if q\[p\].cycle <= q\[i\].cycle {/if q[p].cycle >= q[i].cycle {/'
  'internal/uarch/sim.go|s/len(s.lsq), s.robCount, k)/len(s.lsq), s.robCount, k-1)/'
  'internal/uarch/sim.go|s/\*s.stall += k/*s.stall += k - 1/'
  'internal/uarch/sim.go|s/\tat(e.issueCycle + hold)/\t_ = hold/'
  'internal/uarch/sim.go|s/\tat(s.fetchStallTill)/\t_ = s.fetchStallTill/'
  'internal/atpg/gen.go|s/if !remaining\[i\] { \/\/ a flush dropped it/if false { \/\/ a flush dropped it/'
  'internal/atpg/podem.go|s/\tclear(p.bad)/\t_ = p.bad/'
  'internal/fault/checkpoint.go|s/if err := os.Truncate(path, kept); err != nil {/if _ = kept; false {/'
  'internal/fault/checkpoint.go|s/ck.sections\[ck.cursor\] = s$/ck.sections[ck.cursor] = s; s.ord = ck.cursor/'
  'internal/atpg/podem.go|s/p.stack = append(p.stack, d)$/_ = d/'
  'internal/atpg/podem.go|s/p.stack = append(p.stack, drv)/_ = drv/'
  'internal/atpg/podem.go|s/ \&\& p.region\[g\] == p.regionEp//'
  'internal/core/perf.go|s/intOnly := !progs\[b\].UsesFP()/intOnly := true/'
  'internal/uarch/params.go|s/p.Degr.FPIQHalvesDown = 0$/p.Degr.FPIQHalvesDown, p.Degr.LSQHalvesDown = 0, 0/'
)

tmp=$(mktemp -d)
for f in "${files[@]}"; do
    cp "$f" "$tmp/${f//\//_}.orig"
done
restore() {
    for f in "${files[@]}"; do
        cp "$tmp/${f//\//_}.orig" "$f"
    done
}
trap 'restore; rm -rf "$tmp"' EXIT

echo "== baseline: both catchers must pass on unmutated code"
go build -o "$tmp/rescue-diffcheck" ./cmd/rescue-diffcheck
"$tmp/rescue-diffcheck" -seeds "$range" -workers 1,2 > /dev/null
for pkg in "${!unit_run[@]}"; do
    go test -count=1 -run "${unit_run[$pkg]}" "./$pkg" > /dev/null
done

fail=0
for i in "${!mutants[@]}"; do
    target=${mutants[$i]%%|*}
    m=${mutants[$i]#*|}
    restore
    pkg=$(dirname "$target")
    sed -i "$m" "$target"
    if cmp -s "$tmp/${target//\//_}.orig" "$target"; then
        echo "FAIL: mutant $((i + 1)) did not apply — $target drifted from the sed anchor" >&2
        fail=1
        continue
    fi
    if ! go build -o "$tmp/rescue-diffcheck" ./cmd/rescue-diffcheck 2> "$tmp/build.err"; then
        echo "FAIL: mutant $((i + 1)) does not compile:" >&2
        cat "$tmp/build.err" >&2
        fail=1
        continue
    fi
    if ! "$tmp/rescue-diffcheck" -seeds "$range" -workers 1,2 > "$tmp/out.txt" 2>&1; then
        echo "ok: mutant $((i + 1)) caught by the differential harness"
        continue
    fi
    if ! go test -count=1 -run "${unit_run[$pkg]}" "./$pkg" > "$tmp/out.txt" 2>&1; then
        echo "ok: mutant $((i + 1)) caught by the unit tests"
        continue
    fi
    echo "FAIL: mutant $((i + 1)) SURVIVED both catchers:" >&2
    echo "  $target: $m" >&2
    fail=1
done

restore
if [ "$fail" -ne 0 ]; then
    echo "mutation check FAILED" >&2
    exit 1
fi
echo "all ${#mutants[@]} mutants caught"
