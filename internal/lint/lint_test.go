package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// loadFixture parses one testdata tree.
func loadFixture(t *testing.T, name string) *lint.Repo {
	t.Helper()
	repo, err := lint.Load(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return repo
}

// findingStrings renders findings in their canonical form for golden
// comparison.
func findingStrings(fs []lint.Finding) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.String()
	}
	return out
}

// assertGolden compares rendered findings against the expected list.
func assertGolden(t *testing.T, got []lint.Finding, want []string) {
	t.Helper()
	gs := findingStrings(got)
	if len(gs) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(gs), len(want), strings.Join(gs, "\n"))
	}
	for i := range want {
		if gs[i] != want[i] {
			t.Errorf("finding %d:\n got %s\nwant %s", i, gs[i], want[i])
		}
	}
}

func TestBoundariesGolden(t *testing.T) {
	repo := loadFixture(t, "boundaries")
	got := lint.Run(repo, []lint.Analyzer{lint.NewBoundaries()})
	assertGolden(t, got, []string{
		`examples/demo/main.go:7:2: [boundaries] examples must not import "repro/internal/core": examples must use only the public SDK`,
		`internal/core/core.go:4:8: [boundaries] internal/core must not import "repro/internal/obs": the engine reports spans through the core-owned SpanRecorder seam`,
		`internal/foo/foo.go:6:2: [boundaries] internal must not import "repro/reptile": the dependency arrow points one way: the facade wraps the engine`,
		`internal/foo/foo.go:8:2: [boundaries] internal must not import "repro/reptile/client": the dependency arrow points one way: the facade wraps the engine`,
		`internal/foo/foo.go:9:2: [boundaries] code outside internal/store must not import "unsafe": typed views over file mappings come from one audited helper`,
		`internal/server/server.go:4:8: [boundaries] internal/server must not import "repro/internal/wal": the write-ahead log has one owner, internal/ingest`,
		`reptile/api/api.go:5:2: [boundaries] reptile/api must stay stdlib-only but imports "repro/internal/core": the wire protocol must stay vendorable by out-of-tree clients`,
		`reptile/client/client.go:5:2: [boundaries] reptile/client must stay stdlib-only but imports "repro/internal/server": the client must compile without linking the engine`,
		`reptile/reptile.go:4:8: [boundaries] reptile must not import "repro/internal/wal": the write-ahead log has one owner, internal/ingest`,
	})
}

func TestDeterminismGolden(t *testing.T) {
	repo := loadFixture(t, "determinism")
	got := lint.Run(repo, []lint.Analyzer{lint.NewDeterminism()})
	assertGolden(t, got, []string{
		`internal/core/clock.go:5:2: [determinism] the engine core must not import math/rand: outputs must be pure functions of the inputs`,
		`internal/core/clock.go:9:28: [determinism] the engine core must not read the wall clock (time.Now): outputs must be pure functions of the inputs`,
		`internal/core/fields.go:32:2: [determinism] map iteration order leaks into "out", which is never sorted; sort it before use or iterate sorted keys`,
		`internal/core/fields.go:48:3: [determinism] map iteration order leaks into "out", which is never sorted; sort it before use or iterate sorted keys`,
		`internal/core/ignored.go:14:1: [directive] malformed directive "//lint:ignore determinism": want //lint:ignore <analyzer> <reason>`,
		`internal/core/maps.go:13:2: [determinism] map iteration order leaks into "out", which is never sorted; sort it before use or iterate sorted keys`,
		`internal/core/maps.go:31:2: [determinism] map iteration order feeds encoded output directly; iterate sorted keys instead`,
	})
}

// TestDeterminismSuppression asserts the directive is what hides the Legacy
// finding: the raw analyzer still reports it; Run filters it.
func TestDeterminismSuppression(t *testing.T) {
	repo := loadFixture(t, "determinism")
	raw := lint.NewDeterminism().Run(repo)
	suppressedSeen := false
	for _, f := range raw {
		if f.File == "internal/core/ignored.go" {
			suppressedSeen = true
		}
	}
	if !suppressedSeen {
		t.Fatalf("raw analyzer run should flag ignored.go; the directive, not the analyzer, must be doing the hiding")
	}
	for _, f := range lint.Run(repo, []lint.Analyzer{lint.NewDeterminism()}) {
		if f.File == "internal/core/ignored.go" && f.Analyzer == "determinism" {
			t.Errorf("suppressed finding leaked through Run: %s", f)
		}
	}
}

func TestCloseCheckGolden(t *testing.T) {
	repo := loadFixture(t, "closecheck")
	got := lint.Run(repo, []lint.Analyzer{lint.NewCloseCheck()})
	assertGolden(t, got, []string{
		`internal/files/files.go:16:2: [closecheck] "f" is opened here but never closed and never leaves the function; close it (defer f.Close()) or hand ownership off`,
		`internal/files/files.go:26:2: [closecheck] "log" is opened here but never closed and never leaves the function; close it (defer log.Close()) or hand ownership off`,
		`internal/files/files.go:77:2: [closecheck] "ds" is opened here but never closed and never leaves the function; close it (defer ds.Close()) or hand ownership off`,
	})
}

// TestRepoHeadClean asserts the full suite passes on the repository itself —
// the invariant CI enforces, checked here so `go test ./...` catches a
// regression before CI does.
func TestRepoHeadClean(t *testing.T) {
	repo, err := lint.Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loading repo head: %v", err)
	}
	if fs := lint.Run(repo, lint.All()); len(fs) != 0 {
		t.Errorf("reptile-lint is not clean on the repo head:\n%s", strings.Join(findingStrings(fs), "\n"))
	}
}

func TestSelect(t *testing.T) {
	as, err := lint.Select("boundaries,closecheck")
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if len(as) != 2 || as[0].Name() != "boundaries" || as[1].Name() != "closecheck" {
		t.Errorf("Select picked the wrong analyzers: %v", as)
	}
	if _, err := lint.Select("nonesuch"); err == nil {
		t.Error("Select accepted an unknown analyzer name")
	}
	if all, err := lint.Select(""); err != nil || len(all) != 3 {
		t.Errorf("empty selection should yield the full suite, got %d (%v)", len(all), err)
	}
}

func TestWriteJSONEmpty(t *testing.T) {
	var sb strings.Builder
	if err := lint.WriteJSON(&sb, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(sb.String()) != "[]" {
		t.Errorf("empty findings should render as [], got %q", sb.String())
	}
}
