# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml).

.PHONY: build test race lint loc fuzz-smoke bench-check bench-load bench-serve

build:
	go build ./...

test: build
	go test ./...

race:
	go test -race ./internal/agg/... ./internal/feature/... ./internal/factor/... ./internal/fmatrix/... ./internal/mlm/... ./internal/core/... ./internal/shard/... ./internal/ingest/... ./internal/server/... ./internal/store/... ./internal/cube/... ./internal/wal/... ./internal/obs/... ./reptile/...

# lint checks formatting, vets every package, and runs the full reptile-lint
# static-analysis suite (import boundaries, determinism, error-code contract,
# close-check — see internal/lint). `reptile-lint -list` names the analyzers;
# suppress a false positive with `//lint:ignore <analyzer> <reason>`.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi
	go vet ./...
	go run ./cmd/reptile-lint

# loc prints the size figure CHANGES.md and ROADMAP.md quote: non-test Go
# lines outside benchmark/ (testdata excluded), per top-level package and in
# total — every line, then code lines (neither blank nor only a // comment).
LOC_FILES = -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './benchmark/*' ! -path './.bench_build/*'
loc:
	@printf '%-22s %7s %7s\n' package lines code; \
	for d in '. -maxdepth 1' cmd examples reptile internal/* .; do \
		n=$$(find $$d $(LOC_FILES) -exec cat {} + | wc -l); \
		c=$$(find $$d $(LOC_FILES) -exec cat {} + | grep -cvE '^[[:space:]]*(//.*)?$$'); \
		[ "$$d" = . ] && d=total; \
		[ $$n -eq 0 ] || printf '%-22s %7d %7d\n' "$${d%% *}" $$n $$c; \
	done

# fuzz-smoke runs each native fuzz target briefly (FUZZTIME overrides the
# per-target budget): the binary parsers (.rst snapshots, WAL frames,
# complaint specs, CSV) must error, never panic, on arbitrary bytes.
FUZZTIME ?= 10s
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzOpenSnapshot$$' -fuzztime $(FUZZTIME) ./internal/store
	go test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime $(FUZZTIME) ./internal/wal
	go test -run '^$$' -fuzz '^FuzzParseComplaint$$' -fuzztime $(FUZZTIME) ./internal/core
	go test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime $(FUZZTIME) ./internal/data

# bench-check compiles and smoke-tests the benchmark module. benchmark/ is its
# own module (replace repro => ../), so `go build ./...` and `go test ./...`
# at the root never see it, yet it pins the internal symbols it measures.
bench-check:
	cd benchmark && go vet ./... && go test ./...

# bench-load seeds the storage performance trajectory: CSV vs .rst snapshot
# load and cube vs row-scan GroupBy over heap and mapped columns (plus
# incremental cube maintenance), recorded to BENCH_load.json.
# BENCHTIME overrides the per-benchmark iteration budget.
bench-load:
	sh scripts/bench_load.sh

# bench-serve drives a live reptiled with reptile-bench (closed loop over the
# native client against a generated fist dataset) and records client-side
# p50/p95/p99 latency, achieved QPS, and the server's /v1/stats snapshot to
# BENCH_serve.json. BENCH_DURATION / BENCH_WARMUP / BENCH_CONC tune the run.
bench-serve:
	sh scripts/bench_serve.sh
