# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml).

.PHONY: build test race lint loc loc-check fuzz-smoke bench-check

build:
	go build ./...

test: build
	go test ./...

# race runs -race over every package whose state is shared across goroutines
# (CI's race step runs this target).
race:
	go test -race ./internal/data/... ./internal/agg/... ./internal/feature/... ./internal/factor/... ./internal/fmatrix/... ./internal/mlm/... ./internal/core/... ./internal/shard/... ./internal/ingest/... ./internal/server/... ./internal/store/... ./internal/cube/... ./internal/wal/... ./internal/obs/... ./reptile/... ./cmd/reptiled/...

# lint checks formatting, vets every package, and runs the full reptile-lint
# static-analysis suite (import boundaries, determinism, close-check — see
# internal/lint). `reptile-lint -list` names the analyzers;
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

# loc-check fails when loc's total exceeds LOC_CEILING: growth past it is a
# one-line edit here, made on purpose, not something a re-anchor finds.
LOC_CEILING = 19914
loc-check:
	@n=$$($(MAKE) -s loc | awk '$$1 == "total" { print $$2 }'); \
	if [ $$n -gt $(LOC_CEILING) ]; then echo "non-test Go lines: $$n > LOC_CEILING $(LOC_CEILING) (see make loc)" >&2; exit 1; fi; \
	echo "non-test Go lines: $$n <= $(LOC_CEILING)"

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
