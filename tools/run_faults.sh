#!/usr/bin/env bash
# Fault-injection matrix driver (see docs/robustness.md).
#
# Runs every fault scenario against the soefair CLI and asserts the
# hardened-runtime contract:
#
#   1. every scenario's bare run (--raw) exits with exactly the exit
#      code of its SimError class (10..13) -- never a crash (>= 128),
#      never a hang (timeout), never success;
#   2. the checked sweep (`faults all`) reports every scenario as
#      passing, across several seeds;
#   3. same-seed runs are bit-identical (determinism: no wall clock
#      or unseeded randomness anywhere in the harness);
#   4. a smoke SOE run on the same binary emits no NaN.
#
# Usage: tools/run_faults.sh [build-dir]   (default: build)
# The binary is <build-dir>/tools/soefair_cli; pass the directory of
# a sanitized build to compose the fault paths with ASan/UBSan and
# the SOE_AUDIT invariant sweeps (the ci-asan preset turns both on).

set -u

BUILD_DIR=${1:-build}
CLI="$BUILD_DIR/tools/soefair_cli"
TIMEOUT_S=${SOEFAIR_FAULT_TIMEOUT:-180}
SEEDS=${SOEFAIR_FAULT_SEEDS:-"1 2 3 4 5"}

# Robustness coverage runs with the stall fast-forward engine on
# (the production default) so fault paths compose with cycle
# skipping; set SOEFAIR_FASTFORWARD=0 to cross-check the
# cycle-stepped baseline.
export SOEFAIR_FASTFORWARD=${SOEFAIR_FASTFORWARD:-1}

if [ ! -x "$CLI" ]; then
    echo "error: $CLI not found or not executable" >&2
    echo "build first: cmake --preset release && cmake --build ..." >&2
    exit 2
fi

SCRATCH=$(mktemp -d)
trap 'rm -rf "$SCRATCH"' EXIT

failures=0
fail() {
    echo "FAIL: $*" >&2
    failures=$((failures + 1))
}

# --- 1. raw exit-code matrix ----------------------------------------

declare -A EXPECT=(
    [truncated-trace]=10
    [corrupt-trace-header]=10
    [corrupt-trace-record]=10
    [garbage-config]=10
    [counter-corruption]=11
    [stuck-miss]=12
    [corrupt-checkpoint]=13
)

for scenario in truncated-trace corrupt-trace-header \
                corrupt-trace-record garbage-config \
                counter-corruption stuck-miss corrupt-checkpoint; do
    want=${EXPECT[$scenario]}
    timeout "$TIMEOUT_S" "$CLI" faults "$scenario" --raw \
        --seed 1 --dir "$SCRATCH" >/dev/null 2>&1
    got=$?
    if [ "$got" -eq 124 ]; then
        fail "$scenario: hung (killed after ${TIMEOUT_S}s)"
    elif [ "$got" -ge 128 ]; then
        fail "$scenario: crashed (exit $got)"
    elif [ "$got" -ne "$want" ]; then
        fail "$scenario: exit $got, expected $want"
    else
        echo "ok: $scenario exits $got (raw)"
    fi
done

# --- 2. checked sweep across seeds ----------------------------------

for seed in $SEEDS; do
    out="$SCRATCH/sweep.$seed.out"
    if ! timeout "$TIMEOUT_S" "$CLI" faults all --seed "$seed" \
            --dir "$SCRATCH" >"$out" 2>"$out.err"; then
        fail "faults all --seed $seed exited nonzero"
        sed 's/^/    /' "$out" "$out.err" >&2
    elif grep -q "FAIL" "$out"; then
        fail "faults all --seed $seed reported scenario failures"
        sed 's/^/    /' "$out" >&2
    else
        echo "ok: faults all --seed $seed"
    fi
done

# --- 3. same-seed determinism ---------------------------------------

a="$SCRATCH/det.a"
b="$SCRATCH/det.b"
timeout "$TIMEOUT_S" "$CLI" faults all --seed 7 --dir "$SCRATCH" \
    >"$a" 2>/dev/null
timeout "$TIMEOUT_S" "$CLI" faults all --seed 7 --dir "$SCRATCH" \
    >"$b" 2>/dev/null
if cmp -s "$a" "$b"; then
    echo "ok: same-seed runs are bit-identical"
else
    fail "same-seed fault sweeps differ"
    diff "$a" "$b" | sed 's/^/    /' >&2
fi

# --- 4. NaN smoke on a real run -------------------------------------

smoke="$SCRATCH/smoke.out"
if ! timeout "$TIMEOUT_S" env SOEFAIR_SCALE=0.1 \
        "$CLI" run-soe mcf mgrid --policy fairness --F 0.5 \
        >"$smoke" 2>/dev/null; then
    fail "run-soe smoke run failed"
elif grep -qi "nan" "$smoke"; then
    fail "run-soe smoke output contains NaN"
    grep -in "nan" "$smoke" | sed 's/^/    /' >&2
else
    echo "ok: smoke SOE run is NaN-free"
fi

# --- 5. sweep fault scenarios ---------------------------------------
#
# `sweep` runs on the job queue (enqueue + serve + aggregate). Both
# runs use a tiny two-cell campaign (gcc:eon at F=0,1/2 at
# SOEFAIR_SCALE=0.02) so each job takes well under a second
# unsanitized and ~5-6 s under ASan. The deadline must stay well
# above a healthy job's runtime -- a too-tight deadline kills real
# work, not just the injected hang -- so the hang scenario uses 30 s
# (4-5x a healthy ASan job) and everything else 120 s. (A torn
# queue tail is covered by 6a.)

SWEEP_ENV="env SOEFAIR_SCALE=0.02"
SWEEP_ARGS="sweep --pairs gcc:eon --levels 0,0.5 --retries 2 --backoff 0.1"
SWEEP_DEADLINE=120

# Uninterrupted reference campaign.
ref="$SCRATCH/sweep_ref.csv"
if ! timeout "$TIMEOUT_S" $SWEEP_ENV "$CLI" $SWEEP_ARGS \
        --deadline "$SWEEP_DEADLINE" \
        --queue "$SCRATCH/sweep_ref.queue" --out "$ref" \
        >/dev/null 2>&1; then
    fail "sweep: reference sweep failed"
else
    echo "ok: sweep reference campaign complete"
fi

# 5a. Busy-hang past the deadline: the injected job must be killed,
# retried, then quarantined and recorded as MISSING; the campaign
# still finishes the other cells and exits with the partial-results
# code. A --resume without the injection re-admits the quarantined
# job at attempt 1 and completes the campaign, byte-identical to the
# reference.
hangcsv="$SCRATCH/sweep_hang.csv"
hq="$SCRATCH/sweep_hang.queue"
timeout "$TIMEOUT_S" $SWEEP_ENV "$CLI" $SWEEP_ARGS \
    --deadline 30 --inject 'soe:gcc:eon:F=0.5@hang@99' \
    --queue "$hq" --out "$hangcsv" >/dev/null 2>&1
got=$?
if [ "$got" -ne 20 ]; then
    fail "sweep hang: exit $got, expected 20 (partial)"
elif ! grep -q 'MISSING(gcc:eon,F=0.5,deadline' "$hangcsv"; then
    fail "sweep hang: no MISSING(deadline) marker in CSV"
    sed 's/^/    /' "$hangcsv" >&2
else
    echo "ok: sweep hang scenario is partial with MISSING marker"
fi
hangres="$SCRATCH/sweep_hang_resumed.csv"
if ! timeout "$TIMEOUT_S" $SWEEP_ENV "$CLI" $SWEEP_ARGS \
        --deadline "$SWEEP_DEADLINE" \
        --resume "$hq" --out "$hangres" >/dev/null 2>&1; then
    fail "sweep hang: --resume exited nonzero"
elif ! cmp -s "$ref" "$hangres"; then
    fail "sweep hang: resumed CSV differs from reference"
    diff "$ref" "$hangres" | sed 's/^/    /' >&2
else
    echo "ok: sweep hang resume matches reference byte-for-byte"
fi

# --- 6. sweep service fault scenarios -------------------------------
#
# The durable-queue service must survive torn queue segments, corrupt
# result-cache entries, a worker SIGKILLed mid-lease and a graceful
# SIGTERM drain -- and in every case the final aggregate CSV must be
# byte-identical to an uninterrupted campaign's.

# `serve` takes its campaign from the queue: it gets the worker
# options alone.
SVC_WORKER="--retries 2 --backoff 0.1"
SVC_ARGS="--pairs gcc:eon --levels 0,0.5 $SVC_WORKER"
SVC_CACHE="$SCRATCH/svc_cache"

# Uninterrupted reference drain (also populates the result cache).
svcref="$SCRATCH/svc_ref.csv"
if ! timeout "$TIMEOUT_S" $SWEEP_ENV "$CLI" drain $SVC_ARGS \
        --queue "$SCRATCH/svc_q_ref" --cache "$SVC_CACHE" \
        --deadline "$SWEEP_DEADLINE" --out "$svcref" \
        >/dev/null 2>&1; then
    fail "service: reference drain failed"
else
    echo "ok: service reference drain complete"
fi

# 6a. Queue truncation: a worker SIGKILLed mid-append leaves a torn
# final record in the last queue segment. The next drain must
# truncate it (the record never committed), finish the campaign and
# match the reference.
qt="$SCRATCH/svc_q_torn"
if ! timeout "$TIMEOUT_S" $SWEEP_ENV "$CLI" enqueue $SVC_ARGS \
        --queue "$qt" >/dev/null 2>&1; then
    fail "service queue-truncation: enqueue failed"
fi
lastseg=$(ls "$qt"/queue-*.jsonl | sort | tail -1)
printf '{"op":"lease","job":"st:gcc:1","wor' >>"$lastseg"
tornout="$SCRATCH/svc_torn.csv"
if ! timeout "$TIMEOUT_S" $SWEEP_ENV "$CLI" drain $SVC_ARGS \
        --queue "$qt" --deadline "$SWEEP_DEADLINE" \
        --out "$tornout" >/dev/null 2>"$SCRATCH/svc_torn.err"; then
    fail "service queue-truncation: drain exited nonzero"
    sed 's/^/    /' "$SCRATCH/svc_torn.err" >&2
elif ! cmp -s "$svcref" "$tornout"; then
    fail "service queue-truncation: CSV differs from reference"
    diff "$svcref" "$tornout" | sed 's/^/    /' >&2
else
    echo "ok: service survives a torn queue segment"
fi

# 6b. Cache corruption: flip bytes in a result-cache entry. The
# drain must detect the checksum mismatch, evict the entry,
# re-simulate that one job and still match the reference.
corrupt_entry=$(ls "$SVC_CACHE"/*.rc | head -1)
printf 'XX' | dd of="$corrupt_entry" bs=1 seek=40 conv=notrunc \
    >/dev/null 2>&1
ccout="$SCRATCH/svc_ccache.csv"
if ! timeout "$TIMEOUT_S" $SWEEP_ENV "$CLI" drain $SVC_ARGS \
        --queue "$SCRATCH/svc_q_cc" --cache "$SVC_CACHE" \
        --deadline "$SWEEP_DEADLINE" --out "$ccout" \
        >/dev/null 2>"$SCRATCH/svc_cc.err"; then
    fail "service cache-corruption: drain exited nonzero"
elif ! grep -q "evicting corrupt entry" "$SCRATCH/svc_cc.err"; then
    fail "service cache-corruption: corrupt entry was not evicted"
    sed 's/^/    /' "$SCRATCH/svc_cc.err" >&2
elif ! cmp -s "$svcref" "$ccout"; then
    fail "service cache-corruption: CSV differs from reference"
    diff "$svcref" "$ccout" | sed 's/^/    /' >&2
else
    echo "ok: service evicts corrupt cache entries and re-simulates"
fi

# 6c. Worker SIGKILLed mid-lease: the lease expires, a later drain
# reclaims the jobs at the same attempt number, and the aggregate is
# byte-identical to the reference (the golden resume gate).
qk="$SCRATCH/svc_q_kill"
ck="$SCRATCH/svc_cache_kill"
timeout "$TIMEOUT_S" $SWEEP_ENV "$CLI" enqueue $SVC_ARGS \
    --queue "$qk" >/dev/null 2>&1
timeout "$TIMEOUT_S" $SWEEP_ENV "$CLI" serve $SVC_WORKER \
    --queue "$qk" --cache "$ck" --lease 3 \
    --deadline "$SWEEP_DEADLINE" >/dev/null 2>&1 &
serve_pid=$!
sleep 1
kill -9 "$serve_pid" 2>/dev/null
wait "$serve_pid" 2>/dev/null
killout="$SCRATCH/svc_kill.csv"
if ! timeout "$TIMEOUT_S" $SWEEP_ENV "$CLI" drain $SVC_ARGS \
        --queue "$qk" --cache "$ck" --lease 3 \
        --deadline "$SWEEP_DEADLINE" --out "$killout" \
        >/dev/null 2>&1; then
    fail "service worker-kill: drain after SIGKILL exited nonzero"
elif ! cmp -s "$svcref" "$killout"; then
    fail "service worker-kill: CSV differs from reference"
    diff "$svcref" "$killout" | sed 's/^/    /' >&2
else
    echo "ok: service drain after SIGKILLed worker matches reference"
fi

# 6d. Graceful SIGTERM drain: a worker stuck on an injected hang is
# TERMed; it must kill its child, release the lease un-consumed and
# exit 0. A follow-up drain (no injection) finishes the campaign,
# byte-identical to the reference.
qs="$SCRATCH/svc_q_term"
timeout "$TIMEOUT_S" $SWEEP_ENV "$CLI" enqueue $SVC_ARGS \
    --queue "$qs" >/dev/null 2>&1
timeout "$TIMEOUT_S" $SWEEP_ENV "$CLI" serve $SVC_WORKER \
    --queue "$qs" --inject 'soe:gcc:eon:F=0.5@hang@99' \
    --deadline "$SWEEP_DEADLINE" >/dev/null 2>&1 &
serve_pid=$!
sleep 2
kill -TERM "$serve_pid" 2>/dev/null
wait "$serve_pid"
got=$?
if [ "$got" -ne 0 ]; then
    fail "service sigterm: serve exited $got after SIGTERM, expected 0"
fi
termout="$SCRATCH/svc_term.csv"
if ! timeout "$TIMEOUT_S" $SWEEP_ENV "$CLI" drain $SVC_ARGS \
        --queue "$qs" --deadline "$SWEEP_DEADLINE" \
        --out "$termout" >/dev/null 2>&1; then
    fail "service sigterm: follow-up drain exited nonzero"
elif ! cmp -s "$svcref" "$termout"; then
    fail "service sigterm: CSV differs from reference"
    diff "$svcref" "$termout" | sed 's/^/    /' >&2
else
    echo "ok: service SIGTERM drain is graceful and resumable"
fi

# --- 8. in-process thread-pool executor fault scenarios -------------
#
# The threaded drain must uphold the same golden contract as fork
# mode: an in-thread SimError quarantines only its job with the
# fork-identical failure record, a SIGKILL mid-run leaves only
# expired leases behind (reclaimed at the same attempt), and a
# graceful SIGTERM leaves unstarted jobs un-consumed — in every
# recoverable case the final aggregate is byte-identical to the
# reference.

THR_WORKER="--retries 2 --backoff 0.1"
THR_ARGS="--pairs gcc:eon --levels 0,0.5 $THR_WORKER"

# 8a. In-thread SimError quarantine: the injected InputError unwinds
# inside a worker thread, is mapped to its exit code and quarantines
# just that job; the drain finishes the other cells and reports the
# fork-identical MISSING(input) marker with the partial exit code.
q8a="$SCRATCH/thr_q_poison"
poisonout="$SCRATCH/thr_poison.csv"
timeout "$TIMEOUT_S" $SWEEP_ENV "$CLI" drain $THR_ARGS \
    --queue "$q8a" --threads 2 \
    --inject 'soe:gcc:eon:F=0.5@input@99' \
    --deadline "$SWEEP_DEADLINE" --out "$poisonout" \
    >/dev/null 2>&1
got=$?
if [ "$got" -ne 20 ]; then
    fail "threaded poison: exit $got, expected 20 (partial)"
elif ! grep -q 'MISSING(gcc:eon,F=0.5,input' "$poisonout"; then
    fail "threaded poison: no MISSING(input) marker in CSV"
    sed 's/^/    /' "$poisonout" >&2
else
    echo "ok: threaded in-thread SimError quarantines with" \
         "fork-identical record"
fi

# 8b. SIGKILL mid-run: the pool dies holding one lease per thread;
# they expire and a fork-mode drain reclaims them at the same
# attempt, reproducing the reference CSV exactly.
q8b="$SCRATCH/thr_q_kill"
timeout "$TIMEOUT_S" $SWEEP_ENV "$CLI" enqueue $THR_ARGS \
    --queue "$q8b" >/dev/null 2>&1
timeout "$TIMEOUT_S" $SWEEP_ENV "$CLI" serve $THR_WORKER \
    --queue "$q8b" --threads 2 --lease 3 \
    --deadline "$SWEEP_DEADLINE" >/dev/null 2>&1 &
serve_pid=$!
sleep 1
kill -9 "$serve_pid" 2>/dev/null
wait "$serve_pid" 2>/dev/null
thrkill="$SCRATCH/thr_kill.csv"
if ! timeout "$TIMEOUT_S" $SWEEP_ENV "$CLI" drain $THR_ARGS \
        --queue "$q8b" --lease 3 --deadline "$SWEEP_DEADLINE" \
        --out "$thrkill" >/dev/null 2>&1; then
    fail "threaded kill: drain after SIGKILL exited nonzero"
elif ! cmp -s "$svcref" "$thrkill"; then
    fail "threaded kill: CSV differs from reference"
    diff "$svcref" "$thrkill" | sed 's/^/    /' >&2
else
    echo "ok: fork drain after SIGKILLed thread pool matches reference"
fi

# 8c. Graceful SIGTERM: the pool finishes the jobs already running,
# claims nothing more and exits 0; a follow-up threaded drain runs
# the remaining jobs at attempt 1 and matches the reference
# byte-for-byte.
q8c="$SCRATCH/thr_q_term"
timeout "$TIMEOUT_S" $SWEEP_ENV "$CLI" enqueue $THR_ARGS \
    --queue "$q8c" >/dev/null 2>&1
timeout "$TIMEOUT_S" $SWEEP_ENV "$CLI" serve $THR_WORKER \
    --queue "$q8c" --threads 1 \
    --deadline "$SWEEP_DEADLINE" >/dev/null 2>&1 &
serve_pid=$!
sleep 1
kill -TERM "$serve_pid" 2>/dev/null
wait "$serve_pid"
got=$?
if [ "$got" -ne 0 ]; then
    fail "threaded sigterm: serve exited $got after SIGTERM, expected 0"
fi
thrterm="$SCRATCH/thr_term.csv"
if ! timeout "$TIMEOUT_S" $SWEEP_ENV "$CLI" drain $THR_ARGS \
        --queue "$q8c" --threads 2 \
        --deadline "$SWEEP_DEADLINE" --out "$thrterm" \
        >/dev/null 2>&1; then
    fail "threaded sigterm: follow-up drain exited nonzero"
elif ! cmp -s "$svcref" "$thrterm"; then
    fail "threaded sigterm: CSV differs from reference"
    diff "$svcref" "$thrterm" | sed 's/^/    /' >&2
else
    echo "ok: threaded SIGTERM drain is graceful and resumable"
fi

# --------------------------------------------------------------------

if [ "$failures" -ne 0 ]; then
    echo "run_faults: $failures check(s) FAILED" >&2
    exit 1
fi
echo "run_faults: all checks passed"
exit 0
