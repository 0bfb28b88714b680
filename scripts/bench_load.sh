#!/usr/bin/env sh
# Runs the storage-layer benchmarks (CSV vs .rst snapshot load, eager vs
# memory-mapped open, cube vs row-scan GroupBy over heap and mapped columns,
# incremental cube maintenance, and per-row vs micro-batched append
# ingestion) and writes the results to BENCH_load.json in
# the repository root. Every run records allocation columns (-benchmem):
# bytes_per_op and allocs_per_op are the figures of merit for the mapped
# open, whose residency must stay flat in the row count. Override the
# iteration count with BENCHTIME (a Go -benchtime value, e.g. "3x" or "2s").
set -eu
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-5x}"
out=BENCH_load.json
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# No pipelines around go test: plain sh has no pipefail, and a pipe into tee
# would mask a benchmark failure behind tee's exit status.
go test -run '^$' -bench 'BenchmarkLoad(CSV|Snapshot)$|BenchmarkOpenMapped$' -benchtime "$benchtime" -benchmem -count 1 ./internal/store > "$tmp"
go test -run '^$' -bench 'BenchmarkGroupBy(Coded|Cube)$|BenchmarkCubeAppendMerge$' -benchtime "$benchtime" -benchmem -count 1 ./internal/cube >> "$tmp"
go test -run '^$' -bench 'BenchmarkAppendMicroBatch$' -benchtime "$benchtime" -benchmem -count 1 ./internal/server >> "$tmp"
cat "$tmp"

awk '
BEGIN { n = 0 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    sub(/^Benchmark/, "", name)
    bytes = 0; allocs = 0; rps = 0; rbk = 0
    for (i = 2; i <= NF; i++) {
        if ($i == "B/op") bytes = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
        if ($i == "rows/s") rps = $(i - 1)
        if ($i == "rebuilds/krow") rbk = $(i - 1)
    }
    extra = ""
    if (rps) extra = extra sprintf(", \"rows_per_sec\": %s", rps)
    if (rbk) extra = extra sprintf(", \"rebuilds_per_krow\": %s", rbk)
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s%s}", name, $2, $3, bytes, allocs, extra
}
END { if (n == 0) exit 1 }
' "$tmp" > "$out.body"

{
    printf '{\n  "benchmarks": [\n'
    cat "$out.body"
    printf '\n  ]\n}\n'
} > "$out"
rm -f "$out.body"
echo "wrote $out"
