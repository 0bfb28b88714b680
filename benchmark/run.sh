#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ inside the checkout, then runs it with the driver's flags
# (--workload, --seed, --seconds, --trace). Nothing is read or written
# outside the checkout: the Go build cache, temporary files and every file
# the benchmark produces live under .bench_build/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

if [ ! -f "$root/go.mod" ]; then
	echo "benchmark/run.sh: $root holds no go.mod: there is no program to benchmark" >&2
	exit 2
fi

mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$build/config"

(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
