package lint

import (
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// loadFixture parses one testdata tree.
func loadFixture(t *testing.T, name string) *Repo {
	t.Helper()
	repo, err := Load(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return repo
}

// loadHead parses the repository itself, once for every test that checks it.
// It loads the module root, so benchmark/'s files are covered too.
func loadHead(t *testing.T) *Repo {
	t.Helper()
	repo, err := headRepo()
	if err != nil {
		t.Fatalf("loading repo head: %v", err)
	}
	return repo
}

var headRepo = sync.OnceValues(func() (*Repo, error) { return Load(filepath.Join("..", "..")) })

// findingStrings renders findings in their canonical form, sorted, for golden
// comparison.
func findingStrings(fs []Finding) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.String()
	}
	sort.Strings(out)
	return out
}

// assertGolden compares rendered findings against the expected list.
func assertGolden(t *testing.T, got []Finding, want []string) {
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

// TestBoundariesGolden checks importViolations against the boundaries
// fixture: one violation per dependency-arrow rule, and none from the test
// file or from internal/store's unsafe import.
func TestBoundariesGolden(t *testing.T) {
	assertGolden(t, importViolations(loadFixture(t, "boundaries")), []string{
		`examples/demo/main.go:7:2: [imports] examples must not import "repro/internal/core": examples must use only the public SDK`,
		`internal/core/core.go:4:8: [imports] internal/core must not import "repro/internal/obs": the engine reports spans through the core-owned SpanRecorder seam`,
		`internal/foo/foo.go:6:2: [imports] internal must not import "repro/reptile": the dependency arrow points one way: the facade wraps the engine`,
		`internal/foo/foo.go:8:2: [imports] internal must not import "repro/reptile/client": the dependency arrow points one way: the facade wraps the engine`,
		`internal/foo/foo.go:9:2: [imports] code outside internal/store must not import "unsafe": typed views over file mappings come from one audited helper`,
		`internal/server/server.go:4:8: [imports] internal/server must not import "repro/internal/wal": the write-ahead log has one owner, internal/ingest`,
		`reptile/api/api.go:5:2: [imports] reptile/api must not import "repro/internal/core": the wire protocol must stay stdlib-only, vendorable by out-of-tree clients`,
		`reptile/client/client.go:5:2: [imports] reptile/client must not import "repro/internal/server": the client must compile without linking the engine: stdlib and reptile/api only`,
		`reptile/reptile.go:4:8: [imports] reptile must not import "repro/internal/wal": the write-ahead log has one owner, internal/ingest`,
	})
}

// TestDeterminismGolden checks the determinism fixture: the engine core's
// clock and randomness imports (importViolations) and its map-ordered output
// (MapRanges); internal/util is bound by neither.
func TestDeterminismGolden(t *testing.T) {
	repo := loadFixture(t, "determinism")
	assertGolden(t, append(importViolations(repo), MapRanges(repo)...), []string{
		`internal/core/clock.go:5:2: [imports] internal/core must not import "math/rand": the engine core must be a pure function of its inputs`,
		`internal/core/clock.go:6:2: [imports] internal/core must not import "time": the engine core must be a pure function of its inputs`,
		`internal/core/fields.go:32:2: [determinism] map iteration order leaks into "out", which is never sorted; sort it before use or iterate sorted keys`,
		`internal/core/fields.go:48:3: [determinism] map iteration order leaks into "out", which is never sorted; sort it before use or iterate sorted keys`,
		`internal/core/maps.go:13:2: [determinism] map iteration order leaks into "out", which is never sorted; sort it before use or iterate sorted keys`,
		`internal/core/maps.go:31:2: [determinism] map iteration order feeds encoded output directly; iterate sorted keys instead`,
	})
}

func TestCloseCheckGolden(t *testing.T) {
	assertGolden(t, CloseCheck(loadFixture(t, "closecheck")), []string{
		`internal/files/files.go:16:2: [closecheck] "f" is opened here but never closed and never leaves the function; close it (defer f.Close()) or hand ownership off`,
		`internal/files/files.go:26:2: [closecheck] "log" is opened here but never closed and never leaves the function; close it (defer log.Close()) or hand ownership off`,
		`internal/files/files.go:66:2: [closecheck] "ds" is opened here but never closed and never leaves the function; close it (defer ds.Close()) or hand ownership off`,
	})
}

// TestRepoHeadClean holds the repository to the map-range and close checks;
// `make lint` runs it beside TestImportRules.
func TestRepoHeadClean(t *testing.T) {
	repo := loadHead(t)
	if fs := append(MapRanges(repo), CloseCheck(repo)...); len(fs) != 0 {
		t.Errorf("the repo head breaks the map-range or close check:\n%s", strings.Join(findingStrings(fs), "\n"))
	}
}
