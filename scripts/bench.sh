#!/bin/sh
# Benchmark harness for comparenb. Runs every benchmark (table/figure
# reproductions, the kernel microbenchmarks and the observability-overhead
# probes) with -benchmem at the fixed seeds baked into the _test.go files,
# and writes a machine-readable record (OUT, default bench.out.json — an
# untracked, gitignored file): one record per benchmark plus derived
# speedups — the sharded cube build versus the naive reference builder,
# and the parallel kernels versus their threads=1 runs. The committed
# BENCH_PR*.json baselines are historical; a plain run never overwrites
# them.
#
# When a previous baseline exists (PREV, default BENCH_PR7.json — the
# last committed kernel baseline), the output also carries per-benchmark
# B/op deltas against it, and any cube-build benchmark whose B/op
# regressed by more than 20% gets a loud WARNING on stderr — allocation
# discipline in the build kernel is a tracked budget, not a nice-to-have.
#
#   scripts/bench.sh                    # full run (default -benchtime=1s)
#   BENCHTIME=100ms scripts/bench.sh    # quicker, noisier
#   OUT=/tmp/b.json scripts/bench.sh    # write elsewhere
#   PREV=BENCH_PR2.json scripts/bench.sh  # diff against another baseline
#   PREV=none scripts/bench.sh          # skip the delta section
#
# Stdlib toolchain only: go test + awk.
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
OUT="${OUT:-bench.out.json}"
PREV="${PREV:-BENCH_PR7.json}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

if [ "$PREV" = "none" ] || [ ! -f "$PREV" ]; then
    PREV=/dev/null
fi

echo "==> go test -run '^\$' -bench . -benchmem -benchtime=$BENCHTIME ./..."
go test -run '^$' -bench . -benchmem -benchtime="$BENCHTIME" ./... | tee "$RAW"

echo "==> writing $OUT (B/op deltas vs $PREV)"
awk '
FNR == NR {
    # First input: the previous baseline JSON. One benchmark record per
    # line; pull out the name and its B/op figure when present.
    if (match($0, /"name": "Benchmark[^"]*"/)) {
        pname = substr($0, RSTART + 9, RLENGTH - 10)
        if (match($0, /"b_op": [0-9]+/))
            prev_bop[pname] = substr($0, RSTART + 8, RLENGTH - 8) + 0
    }
    next
}
/^Benchmark/ {
    # Benchmark lines: Name-GOMAXPROCS  N  ns/op  [B/op  allocs/op]
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns[name] = $3
    bop[name] = ""; aop[name] = ""
    for (i = 4; i < NF; i++) {
        if ($(i + 1) == "B/op") bop[name] = $i
        if ($(i + 1) == "allocs/op") aop[name] = $i
    }
    order[n_bench++] = name
}
END {
    printf "{\n  \"benchtime\": \"%s\",\n  \"benchmarks\": [\n", benchtime
    for (i = 0; i < n_bench; i++) {
        name = order[i]
        printf "    {\"name\": \"%s\", \"ns_op\": %s", name, ns[name]
        if (bop[name] != "") printf ", \"b_op\": %s, \"allocs_op\": %s", bop[name], aop[name]
        printf "}%s\n", (i < n_bench - 1 ? "," : "")
    }
    printf "  ],\n  \"speedups\": [\n"
    n_sp = 0
    # Sharded kernel vs the naive reference builder (same seed, same attrs).
    if (("BenchmarkBuildCubeReference" in ns) && ("BenchmarkBuildCube2Attrs" in ns)) {
        sp_name[n_sp] = "BuildCube2Attrs_vs_naive_reference"
        sp_val[n_sp] = ns["BenchmarkBuildCubeReference"] / ns["BenchmarkBuildCube2Attrs"]
        n_sp++
    }
    # Parallel kernels vs their own threads=1 runs (bit-identical output).
    for (i = 0; i < n_bench; i++) {
        name = order[i]
        if (name !~ /threads=[0-9]+$/ || name ~ /threads=1$/) continue
        base = name
        sub(/threads=[0-9]+$/, "threads=1", base)
        if (base in ns) {
            sp_name[n_sp] = substr(name, 10) "_vs_threads=1"
            sp_val[n_sp] = ns[base] / ns[name]
            n_sp++
        }
    }
    for (i = 0; i < n_sp; i++)
        printf "    {\"name\": \"%s\", \"speedup\": %.3f}%s\n", sp_name[i], sp_val[i], (i < n_sp - 1 ? "," : "")
    printf "  ]"
    # B/op deltas against the previous baseline: ratio < 1 means this run
    # allocates less per op than the baseline did.
    n_d = 0
    for (i = 0; i < n_bench; i++) {
        name = order[i]
        if (bop[name] == "" || !(name in prev_bop) || prev_bop[name] == 0) continue
        d_name[n_d] = name; n_d++
    }
    if (n_d > 0) {
        printf ",\n  \"b_op_deltas\": [\n"
        for (i = 0; i < n_d; i++) {
            name = d_name[i]
            ratio = bop[name] / prev_bop[name]
            printf "    {\"name\": \"%s\", \"prev_b_op\": %.0f, \"b_op\": %s, \"ratio\": %.3f}%s\n", \
                name, prev_bop[name], bop[name], ratio, (i < n_d - 1 ? "," : "")
            if (name ~ /BuildCube/ && ratio > 1.2) {
                printf "WARNING: %s B/op regressed %.1f%% vs baseline (%.0f -> %s B/op)\n", \
                    name, (ratio - 1) * 100, prev_bop[name], bop[name] | "cat 1>&2"
                warned = 1
            }
        }
        printf "  ]"
        if (warned) {
            printf "==================== B/op REGRESSION ====================\n" | "cat 1>&2"
            printf "Cube-build benchmarks above regressed >20%% in bytes/op.\n" | "cat 1>&2"
            printf "The cube kernel budgets allocations deliberately --\n" | "cat 1>&2"
            printf "see docs/PERFORMANCE.md before accepting a new baseline.\n" | "cat 1>&2"
            printf "=========================================================\n" | "cat 1>&2"
        }
    }
    printf "\n}\n"
}
' benchtime="$BENCHTIME" "$PREV" "$RAW" > "$OUT"

echo "OK: wrote $OUT"
