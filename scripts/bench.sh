#!/bin/sh
# Benchmark runner: executes the paper-evaluation benchmarks (root
# package) and the telemetry micro-benchmarks, then writes the results
# as machine-readable JSON (default BENCH_remos.json) for CI artifacts
# and cross-commit diffing. No dependencies beyond the go toolchain and
# POSIX awk.
#
#   scripts/bench.sh [output.json]
#   scripts/bench.sh -compare [baseline.json]
#
# The root package is run in two passes: experiment-scale benchmarks
# (tables, figures, studies — each iteration is a full experiment) at
# ROOT_BENCHTIME (default 1x), and the query-path micro-benchmarks
# (collector poll, modeler queries, parallel scaling) at
# MICRO_BENCHTIME (default 50ms) so their ns/op are averages over
# thousands of iterations rather than one-shot samples.
#
# In -compare mode a fresh run is diffed against the committed baseline
# (default BENCH_remos.json): per benchmark, ns/op and allocs/op changes
# above SOFT_PCT (default 10%) are flagged as warnings — benchmark noise
# on shared runners — and anything above HARD_PCT (default 25%) fails
# the run after one retry. The raw `go test -bench` text is kept at
# BENCH_raw.txt in both modes, ready for benchstat.
set -eu

cd "$(dirname "$0")/.."

ROOT_BENCHTIME=${ROOT_BENCHTIME:-1x}
MICRO_BENCHTIME=${MICRO_BENCHTIME:-50ms}
SOFT_PCT=${SOFT_PCT:-10}
HARD_PCT=${HARD_PCT:-25}
RAW=${RAW:-BENCH_raw.txt}
ATTEMPTS=${ATTEMPTS:-2}

# Micro-benchmarks: per-op costs small enough that -benchtime 1x would
# measure noise instead of code.
MICRO_PAT='BenchmarkCollectorPollRound|BenchmarkFeedSinceDelta|BenchmarkWindowAppendFull|BenchmarkModeler|BenchmarkDialedModeler|BenchmarkFxIteration|BenchmarkWatchFanout|BenchmarkReplica|BenchmarkFederated|BenchmarkWireRoundTrip'

COMPARE=0
BASELINE=BENCH_remos.json
OUT=BENCH_remos.json
if [ "${1:-}" = "-compare" ]; then
    COMPARE=1
    shift
    [ $# -gt 0 ] && BASELINE=$1
    if [ ! -f "$BASELINE" ]; then
        echo "bench: baseline $BASELINE not found" >&2
        exit 2
    fi
else
    [ $# -gt 0 ] && OUT=$1
fi

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
[ "$COMPARE" = 1 ] && OUT="$TMP/fresh.json"

# One JSON object per "BenchmarkName  iters  v unit  v unit ..." line.
bench_json() {
    awk '
        BEGIN { n = 0 }
        /^Benchmark/ {
            sep = n++ ? "," : ""
            printf "%s\n      {\"name\": \"%s\", \"iterations\": %s, \"metrics\": {", sep, $1, $2
            m = 0
            for (i = 3; i + 1 <= NF; i += 2) {
                printf "%s\"%s\": %s", (m++ ? ", " : ""), $(i + 1), $i
            }
            printf "}}"
        }
        END { if (n) printf "\n    " }
    ' "$@"
}

run_benches() {
    echo "==> go test -bench . -skip (micro) -benchtime=$ROOT_BENCHTIME . (paper evaluation)"
    go test -run '^$' -bench . -skip "$MICRO_PAT" -benchmem -benchtime "$ROOT_BENCHTIME" . | tee "$TMP/root.txt"

    echo "==> go test -bench (micro) -benchtime=$MICRO_BENCHTIME . (query path)"
    go test -run '^$' -bench "$MICRO_PAT" -benchmem -benchtime "$MICRO_BENCHTIME" . | tee "$TMP/micro.txt"

    echo "==> go test -bench . -benchtime=$MICRO_BENCHTIME ./internal/telemetry"
    go test -run '^$' -bench . -benchmem -benchtime "$MICRO_BENCHTIME" ./internal/telemetry | tee "$TMP/telemetry.txt"

    echo "==> go test -bench BenchmarkMatrixKernel -benchtime=$MICRO_BENCHTIME ./internal/core (batched kernel ablation)"
    go test -run '^$' -bench 'BenchmarkMatrixKernel' -benchmem -benchtime "$MICRO_BENCHTIME" ./internal/core | tee "$TMP/matrixcore.txt"

    echo "==> go test -bench BenchmarkMatrixWire -benchtime=$MICRO_BENCHTIME ./remos (matrix wire op + p99 latency)"
    go test -run '^$' -bench 'BenchmarkMatrixWire' -benchmem -benchtime "$MICRO_BENCHTIME" ./remos | tee "$TMP/matrixwire.txt"

    echo "==> go test -bench BenchmarkFrameCodec -benchtime=$MICRO_BENCHTIME ./internal/collector (wire codec rung)"
    go test -run '^$' -bench 'BenchmarkFrameCodec' -benchmem -benchtime "$MICRO_BENCHTIME" ./internal/collector | tee "$TMP/framecodec.txt"

    echo "==> go test -bench BenchmarkReplicaApplyDelta -benchtime=$MICRO_BENCHTIME ./internal/replica (write-side rung: B/op per epoch)"
    go test -run '^$' -bench 'BenchmarkReplicaApplyDelta' -benchmem -benchtime "$MICRO_BENCHTIME" ./internal/replica | tee "$TMP/replicaapply.txt"

    echo "==> go test -bench BenchmarkAgentHandleGet -benchtime=$MICRO_BENCHTIME ./internal/snmp (agent rung: a plan GET, full and replayed)"
    go test -run '^$' -bench 'BenchmarkAgentHandleGet' -benchmem -benchtime "$MICRO_BENCHTIME" ./internal/snmp | tee "$TMP/agent.txt"

    # Benchstat-friendly raw output, kept as a CI artifact.
    cat "$TMP/root.txt" "$TMP/micro.txt" "$TMP/telemetry.txt" "$TMP/matrixcore.txt" "$TMP/matrixwire.txt" "$TMP/framecodec.txt" "$TMP/replicaapply.txt" "$TMP/agent.txt" > "$RAW"

    {
        printf '{\n'
        printf '  "schema": 1,\n'
        printf '  "generated": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
        printf '  "go": "%s",\n' "$(go version | sed 's/^go version //')"
        printf '  "root_benchtime": "%s",\n' "$ROOT_BENCHTIME"
        printf '  "micro_benchtime": "%s",\n' "$MICRO_BENCHTIME"
        printf '  "packages": {\n'
        printf '    "repro": ['
        bench_json "$TMP/root.txt" "$TMP/micro.txt"
        printf '],\n'
        printf '    "repro/internal/telemetry": ['
        bench_json "$TMP/telemetry.txt"
        printf '],\n'
        printf '    "repro/internal/core": ['
        bench_json "$TMP/matrixcore.txt"
        printf '],\n'
        printf '    "repro/remos": ['
        bench_json "$TMP/matrixwire.txt"
        printf '],\n'
        printf '    "repro/internal/collector": ['
        bench_json "$TMP/framecodec.txt"
        printf '],\n'
        printf '    "repro/internal/replica": ['
        bench_json "$TMP/replicaapply.txt"
        printf '],\n'
        printf '    "repro/internal/snmp": ['
        bench_json "$TMP/agent.txt"
        printf ']\n'
        printf '  }\n'
        printf '}\n'
    } > "$OUT"

    echo "bench: wrote $OUT (raw: $RAW)"
}

# Extract "name<TAB>ns/op<TAB>allocs/op<TAB>p99_ms" per benchmark from
# the line-oriented JSON (p99_ms is 0 for benchmarks that do not report
# a tail latency). Names are normalized by stripping the trailing
# -GOMAXPROCS suffix so baselines transfer across machines.
bench_extract() {
    awk '
        /"name":/ {
            name = ""; ns = ""; al = ""; p99 = ""
            if (match($0, /"name": "[^"]+"/)) {
                name = substr($0, RSTART + 9, RLENGTH - 10)
                sub(/-[0-9]+$/, "", name)
            }
            if (match($0, /"ns\/op": [0-9.eE+-]+/))
                ns = substr($0, RSTART + 9, RLENGTH - 9)
            if (match($0, /"allocs\/op": [0-9.eE+-]+/))
                al = substr($0, RSTART + 13, RLENGTH - 13)
            if (match($0, /"p99_ms": [0-9.eE+-]+/))
                p99 = substr($0, RSTART + 10, RLENGTH - 10)
            if (name != "" && ns != "")
                printf "%s\t%s\t%s\t%s\n", name, ns, (al == "" ? 0 : al), (p99 == "" ? 0 : p99)
        }
    ' "$1"
}

compare_run() {
    bench_extract "$BASELINE" > "$TMP/base.tsv"
    bench_extract "$OUT" > "$TMP/fresh.tsv"
    awk -F'\t' -v soft="$SOFT_PCT" -v hard="$HARD_PCT" '
        NR == FNR { ns[$1] = $2; al[$1] = $3; p99[$1] = $4; next }
        {
            if (!($1 in ns)) { printf "  new       %-58s (no baseline entry)\n", $1; next }
            seen[$1] = 1
            dns = ns[$1] > 0 ? 100 * ($2 - ns[$1]) / ns[$1] : 0
            dal = al[$1] > 0 ? 100 * ($3 - al[$1]) / al[$1] : 0
            dp99 = p99[$1] > 0 ? 100 * ($4 - p99[$1]) / p99[$1] : 0
            worst = dns > dal ? dns : dal
            if (dp99 > worst) worst = dp99
            flag = "ok"
            if (worst > hard)      { flag = "FAIL"; hardfail++ }
            else if (worst > soft) { flag = "warn"; softfail++ }
            tail = p99[$1] > 0 ? sprintf("  p99 %+8.1f%%", dp99) : ""
            printf "  %-9s %-58s ns/op %+8.1f%%  allocs/op %+8.1f%%%s\n", flag, $1, dns, dal, tail
        }
        END {
            for (n in ns) if (!(n in seen))
                printf "  missing   %-58s (baseline only)\n", n
            if (hardfail) {
                printf "bench-compare: FAIL — %d benchmark(s) regressed more than %d%%\n", hardfail, hard
                exit 1
            }
            if (softfail)
                printf "bench-compare: %d soft regression(s) above %d%% — likely runner noise; refresh the baseline if real\n", softfail, soft
            else
                printf "bench-compare: ok\n"
        }
    ' "$TMP/base.tsv" "$TMP/fresh.tsv"
}

if [ "$COMPARE" = 0 ]; then
    run_benches
    exit 0
fi

attempt=1
while :; do
    run_benches
    echo "==> comparing against $BASELINE (soft >${SOFT_PCT}%, hard >${HARD_PCT}%, attempt $attempt/$ATTEMPTS)"
    if compare_run; then
        exit 0
    fi
    if [ "$attempt" -ge "$ATTEMPTS" ]; then
        echo "bench-compare: regression persisted across $ATTEMPTS runs" >&2
        exit 1
    fi
    attempt=$((attempt + 1))
    echo "bench-compare: hard failure — re-running once to rule out runner noise"
done
