package lint

import (
	"go/ast"
	"strings"
	"testing"
)

// importRef is one import path as a rule sees it.
type importRef struct {
	path string // as written: "repro/internal/core", "unsafe"
	rel  string // module-relative when mod: "internal/core"
	mod  bool   // a package of this module
	std  bool   // a standard-library package
}

// under reports whether the import is this module's tree or a package in it.
func (p importRef) under(tree string) bool { return p.mod && inTree(p.rel, tree) }

// clockOrRand bans the wall clock and randomness: the engine's outputs must
// be pure functions of its inputs.
func clockOrRand(p importRef) bool { return p.path == "time" || inTree(p.path, "math/rand") }

// importRule forbids some imports to the production files of one subtree;
// _test.go files are exempt everywhere (the client's round-trip tests host
// the internal server in-process).
type importRule struct {
	tree   string // the module-relative subtree bound; "" binds the module
	except string // a subtree of tree the rule does not bind
	bans   func(importRef) bool
	why    string
}

// importRules are the module's dependency arrows and the engine's purity.
var importRules = []importRule{
	{tree: "examples", why: "examples must use only the public SDK",
		bans: func(p importRef) bool { return p.under("internal") }},
	{tree: "reptile/api", why: "the wire protocol must stay stdlib-only, vendorable by out-of-tree clients",
		bans: func(p importRef) bool { return !p.std }},
	{tree: "reptile/client", why: "the client must compile without linking the engine: stdlib and reptile/api only",
		bans: func(p importRef) bool { return !p.std && !p.under("reptile/api") }},
	{tree: "internal", why: "the dependency arrow points one way: the facade wraps the engine",
		bans: func(p importRef) bool {
			return p.mod && p.rel == "reptile" || p.under("reptile/client") || p.under("reptile/sampledata")
		}},
	{tree: "internal/core", why: "the engine reports spans through the core-owned SpanRecorder seam",
		bans: func(p importRef) bool { return p.under("internal/obs") }},
	{tree: "internal/server", why: "the write-ahead log has one owner, internal/ingest",
		bans: func(p importRef) bool { return p.under("internal/wal") }},
	{tree: "reptile", why: "the write-ahead log has one owner, internal/ingest",
		bans: func(p importRef) bool { return p.under("internal/wal") }},
	{except: "internal/store", why: "typed views over file mappings come from one audited helper",
		bans: func(p importRef) bool { return p.path == "unsafe" }},
	{tree: "internal/core", why: "the engine core must be a pure function of its inputs", bans: clockOrRand},
	{tree: "internal/agg", why: "the engine core must be a pure function of its inputs", bans: clockOrRand},
	{tree: "internal/cube", why: "the engine core must be a pure function of its inputs", bans: clockOrRand},
	// Retention reads event times, so shard may import time, not the clock.
	{tree: "internal/shard", why: "the engine core must be a pure function of its inputs",
		bans: func(p importRef) bool { return inTree(p.path, "math/rand") }},
}

// clockCallTree may import time but must not call time.Now or time.Since.
const clockCallTree = "internal/shard"

// importViolations checks every production file's imports against
// importRules, and clockCallTree's files for wall-clock reads.
func importViolations(r *Repo) []Finding {
	var out []Finding
	r.eachFile(func(dir string, f *File) {
		if f.Test {
			return
		}
		for _, spec := range f.Ast.Imports {
			p := importRef{path: importPath(spec)}
			p.rel, p.mod = r.inModule(p.path)
			first, _, _ := strings.Cut(p.path, "/")
			p.std = !p.mod && !strings.Contains(first, ".")
			for _, rule := range importRules {
				if (rule.tree == "" || inTree(dir, rule.tree)) && (rule.except == "" || !inTree(dir, rule.except)) && rule.bans(p) {
					subject := rule.tree
					if subject == "" {
						subject = "code outside " + rule.except
					}
					out = append(out, r.finding("imports", f, spec.Pos(), "%s must not import %q: %s", subject, p.path, rule.why))
				}
			}
			if p.path == "time" && inTree(dir, clockCallTree) {
				out = append(out, clockReads(r, f, spec)...)
			}
		}
	})
	return out
}

// clockReads flags the time.Now and time.Since calls of a file importing time
// through spec.
func clockReads(r *Repo, f *File, spec *ast.ImportSpec) []Finding {
	name := "time"
	if spec.Name != nil {
		name = spec.Name.Name
	}
	var out []Finding
	ast.Inspect(f.Ast, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Now" && sel.Sel.Name != "Since" {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); ok && x.Name == name {
			out = append(out, r.finding("imports", f, sel.Pos(), "%s must not read the wall clock (time.%s): its outputs must be pure functions of its inputs", clockCallTree, sel.Sel.Name))
		}
		return true
	})
	return out
}

// TestImportRules holds the repository to its import rules.
func TestImportRules(t *testing.T) {
	if fs := importViolations(loadHead(t)); len(fs) != 0 {
		t.Errorf("import rules broken on the repo head:\n%s", strings.Join(findingStrings(fs), "\n"))
	}
}
