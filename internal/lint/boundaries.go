package lint

import (
	"slices"
	"strings"
)

// importRule is one declarative import constraint over a subtree of the
// repository. Rules bind production code only; _test.go files are exempt
// everywhere (the client's round-trip tests deliberately host the internal
// server in-process).
type importRule struct {
	// Tree is the module-relative directory subtree the rule governs; ""
	// governs the whole repository.
	Tree string
	// ExceptTrees lists subtrees of Tree the rule does not bind.
	ExceptTrees []string
	// ForbidStdlib lists standard-library packages the governed code must
	// not import.
	ForbidStdlib []string
	// ForbidTrees lists module-relative package subtrees (the package and
	// everything under it) the governed code must not import.
	ForbidTrees []string
	// ForbidExact lists single packages the governed code must not import;
	// their subpackages stay importable unless listed themselves.
	ForbidExact []string
	// StdlibOnly restricts imports to the standard library plus AllowTrees.
	StdlibOnly bool
	// AllowTrees lists module-relative subtrees exempt from StdlibOnly.
	AllowTrees []string
	// Why is the one-line rationale quoted in findings.
	Why string
}

// Boundaries enforces the repository's dependency arrows as typed
// import-graph rules:
//
//   - examples/ may only use the public SDK: no internal/ imports.
//   - reptile/api is the shared wire protocol: stdlib-only, vendorable.
//   - reptile/client must compile into processes that never link the
//     engine: stdlib plus reptile/api only.
//   - internal/ must not import the facade, the client, or sampledata —
//     the dependency arrow points one way (facade wraps engine).
//     reptile/api is exempt: internal/server marshals it by design.
//   - internal/core stays observability-free: it must not import
//     internal/obs (the SpanRecorder seam exists precisely so it never
//     has to).
//   - internal/server and the reptile SDK must not import internal/wal:
//     the write-ahead log has one owner, internal/ingest, which both embed.
//   - only internal/store may import unsafe: its one view helper turns
//     mapped column payloads into typed slices, and nothing else may step
//     around the type system.
type Boundaries struct {
	// Rules defaults to the repository's contract; tests may substitute.
	Rules []importRule
}

// NewBoundaries returns the analyzer with the repository's standard rules.
func NewBoundaries() *Boundaries {
	return &Boundaries{Rules: []importRule{
		{
			Tree:        "examples",
			ForbidTrees: []string{"internal"},
			Why:         "examples must use only the public SDK",
		},
		{
			Tree:       "reptile/api",
			StdlibOnly: true,
			Why:        "the wire protocol must stay vendorable by out-of-tree clients",
		},
		{
			Tree:       "reptile/client",
			StdlibOnly: true,
			AllowTrees: []string{"reptile/api"},
			Why:        "the client must compile without linking the engine",
		},
		{
			Tree:        "internal",
			ForbidExact: []string{"reptile"},
			ForbidTrees: []string{"reptile/client", "reptile/sampledata"},
			Why:         "the dependency arrow points one way: the facade wraps the engine",
		},
		{
			Tree:        "internal/core",
			ForbidTrees: []string{"internal/obs"},
			Why:         "the engine reports spans through the core-owned SpanRecorder seam",
		},
		{
			Tree:        "internal/server",
			ForbidTrees: []string{"internal/wal"},
			Why:         "the write-ahead log has one owner, internal/ingest",
		},
		{
			Tree:        "reptile",
			ForbidTrees: []string{"internal/wal"},
			Why:         "the write-ahead log has one owner, internal/ingest",
		},
		{
			ExceptTrees:  []string{"internal/store"},
			ForbidStdlib: []string{"unsafe"},
			Why:          "typed views over file mappings come from one audited helper",
		},
	}}
}

// Name implements Analyzer.
func (*Boundaries) Name() string { return "boundaries" }

// Doc implements Analyzer.
func (*Boundaries) Doc() string {
	return "enforce the public-API import boundaries (examples/ and reptile/{api,client} vs internal/)"
}

// governs reports whether the rule binds the package directory dir.
func (rule *importRule) governs(dir string) bool {
	return (rule.Tree == "" || inTree(dir, rule.Tree)) && !allowed(dir, rule.ExceptTrees)
}

// subject names the governed code in findings.
func (rule *importRule) subject() string {
	if rule.Tree != "" {
		return rule.Tree
	}
	return "code outside " + strings.Join(rule.ExceptTrees, ", ")
}

// forbidden reports whether a module-relative import path violates the rule.
func (rule *importRule) forbidden(rel string) bool {
	for _, t := range rule.ForbidExact {
		if rel == t {
			return true
		}
	}
	for _, t := range rule.ForbidTrees {
		if inTree(rel, t) {
			return true
		}
	}
	return false
}

// Run implements Analyzer.
func (b *Boundaries) Run(r *Repo) []Finding {
	var out []Finding
	for _, pkg := range r.Pkgs {
		for ri := range b.Rules {
			rule := &b.Rules[ri]
			if !rule.governs(pkg.Dir) {
				continue
			}
			for _, f := range pkg.Files {
				if f.Test {
					continue
				}
				out = append(out, b.checkFile(r, rule, f)...)
			}
		}
	}
	return out
}

func (b *Boundaries) checkFile(r *Repo, rule *importRule, f *File) []Finding {
	var out []Finding
	for _, spec := range f.Ast.Imports {
		path := importPathOf(spec)
		if path == "" {
			continue
		}
		rel, inMod := r.InModule(path)
		if inMod && rule.forbidden(rel) || !inMod && slices.Contains(rule.ForbidStdlib, path) {
			out = append(out, r.finding(b.Name(), f, spec.Pos(),
				"%s must not import %q: %s", rule.subject(), path, rule.Why))
			continue
		}
		if !rule.StdlibOnly || r.Stdlib(path) {
			continue
		}
		if inMod && allowed(rel, rule.AllowTrees) {
			continue
		}
		out = append(out, r.finding(b.Name(), f, spec.Pos(),
			"%s must stay stdlib-only but imports %q: %s", rule.Tree, path, rule.Why))
	}
	return out
}

func allowed(rel string, trees []string) bool {
	for _, t := range trees {
		if inTree(rel, t) {
			return true
		}
	}
	return false
}
