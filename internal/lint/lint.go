package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Finding is one analyzer hit, positioned at a file:line the developer can
// jump to. File paths are slash-separated and relative to the repository
// root, so findings are stable across machines and diffable in CI logs.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Analyzer is one check over the loaded repository. Analyzers are pure: they
// read the syntax trees and return findings, never mutate them.
type Analyzer interface {
	// Name is the analyzer's stable identifier — the token used in
	// `-only` selections and `//lint:ignore <name> <reason>` directives.
	Name() string
	// Doc is a one-line description for -list output.
	Doc() string
	// Run analyzes the repository.
	Run(r *Repo) []Finding
}

// File is one parsed Go source file.
type File struct {
	// Rel is the file's slash-separated path relative to the repo root.
	Rel string
	// Ast is the parsed file, comments included.
	Ast *ast.File
	// Test reports whether the file is a _test.go file. Most invariants
	// bind only production code; tests deliberately cross boundaries.
	Test bool

	// ignores maps source line → analyzer names suppressed on that line by
	// a well-formed `//lint:ignore <analyzer> <reason>` directive.
	ignores map[int][]string
}

// Package groups the files of one directory (one Go package, tests
// included).
type Package struct {
	// Dir is the package directory relative to the repo root, slash
	// separated; "" for the root package.
	Dir   string
	Files []*File
}

// Repo is the loaded repository: every Go file under the root, grouped by
// package directory, plus the module path from go.mod.
type Repo struct {
	Root   string
	Module string
	Fset   *token.FileSet
	Pkgs   []*Package

	// directiveFindings are malformed //lint:ignore comments discovered at
	// load time; Run reports them alongside analyzer findings so a typoed
	// suppression can never silently mask nothing.
	directiveFindings []Finding
}

// skipDir reports directories the loader never descends into: VCS state,
// fixture trees (the go tool ignores "testdata" too), and hidden or
// underscore-prefixed directories.
func skipDir(name string) bool {
	return name == "testdata" || name == "node_modules" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// Load parses every Go file under root into a Repo. Files that fail to parse
// are an error: the analyzers' guarantees are only as good as their coverage,
// so an unparsable file must fail the run, not shrink it.
func Load(root string) (*Repo, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	r := &Repo{Root: root, Module: modPath, Fset: token.NewFileSet()}
	byDir := make(map[string]*Package)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		af, err := parser.ParseFile(r.Fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("lint: parsing %s: %w", rel, err)
		}
		dir := ""
		if i := strings.LastIndex(rel, "/"); i >= 0 {
			dir = rel[:i]
		}
		f := &File{Rel: rel, Ast: af, Test: strings.HasSuffix(d.Name(), "_test.go")}
		r.loadDirectives(f)
		pkg, ok := byDir[dir]
		if !ok {
			pkg = &Package{Dir: dir}
			byDir[dir] = pkg
		}
		pkg.Files = append(pkg.Files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range byDir {
		sort.Slice(p.Files, func(i, j int) bool { return p.Files[i].Rel < p.Files[j].Rel })
		r.Pkgs = append(r.Pkgs, p)
	}
	sort.Slice(r.Pkgs, func(i, j int) bool { return r.Pkgs[i].Dir < r.Pkgs[j].Dir })
	return r, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("lint: reading module file: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			mod := strings.TrimSpace(rest)
			mod = strings.Trim(mod, `"`)
			if mod != "" {
				return mod, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s", path)
}

// ignorePrefix introduces a suppression directive. The full form is
//
//	//lint:ignore <analyzer> <reason>
//
// placed on the flagged line or the line directly above it. The reason is
// mandatory: a suppression documents a decision, and "because" is not one.
const ignorePrefix = "//lint:ignore"

// loadDirectives scans a file's comments for suppression directives,
// recording well-formed ones on the file and malformed ones as findings.
func (r *Repo) loadDirectives(f *File) {
	for _, cg := range f.Ast.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, ignorePrefix)
			if !ok {
				continue
			}
			pos := r.Fset.Position(c.Pos())
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				r.directiveFindings = append(r.directiveFindings, Finding{
					Analyzer: "directive",
					File:     f.Rel,
					Line:     pos.Line,
					Col:      pos.Column,
					Message:  fmt.Sprintf("malformed directive %q: want %s <analyzer> <reason>", c.Text, ignorePrefix),
				})
				continue
			}
			if f.ignores == nil {
				f.ignores = make(map[int][]string)
			}
			f.ignores[pos.Line] = append(f.ignores[pos.Line], fields[0])
		}
	}
}

// suppressed reports whether a finding by the named analyzer at the given
// line is covered by a directive on that line or the line above.
func (f *File) suppressed(analyzer string, line int) bool {
	for _, l := range []int{line, line - 1} {
		for _, a := range f.ignores[l] {
			if a == analyzer {
				return true
			}
		}
	}
	return false
}

// finding builds a Finding at a node's position.
func (r *Repo) finding(analyzer string, f *File, pos token.Pos, format string, args ...any) Finding {
	p := r.Fset.Position(pos)
	return Finding{
		Analyzer: analyzer,
		File:     f.Rel,
		Line:     p.Line,
		Col:      p.Column,
		Message:  fmt.Sprintf(format, args...),
	}
}

// Stdlib reports whether an import path names a standard-library package: no
// module qualifier (the first path element carries no dot) and not a package
// of this module. The module's own path may be dot-free (this repo's is), so
// the module check runs first.
func (r *Repo) Stdlib(path string) bool {
	if path == r.Module || strings.HasPrefix(path, r.Module+"/") {
		return false
	}
	first, _, _ := strings.Cut(path, "/")
	return !strings.Contains(first, ".")
}

// InModule returns the module-relative form of an import path ("" when the
// path is not part of this module): "repro/internal/core" → "internal/core".
func (r *Repo) InModule(path string) (string, bool) {
	if path == r.Module {
		return "", true
	}
	if rest, ok := strings.CutPrefix(path, r.Module+"/"); ok {
		return rest, true
	}
	return "", false
}

// inTree reports whether a package directory sits at or under the given
// module-relative tree.
func inTree(dir, tree string) bool {
	return dir == tree || strings.HasPrefix(dir, tree+"/")
}

// importPathOf unquotes an import spec's path.
func importPathOf(spec *ast.ImportSpec) string {
	p, err := strconv.Unquote(spec.Path.Value)
	if err != nil {
		return ""
	}
	return p
}

// Run executes the analyzers over the repository, drops suppressed findings,
// and returns the rest sorted by file, line, and analyzer. Malformed
// suppression directives are always reported, whichever analyzers run.
func Run(r *Repo, analyzers []Analyzer) []Finding {
	fileOf := make(map[string]*File)
	for _, p := range r.Pkgs {
		for _, f := range p.Files {
			fileOf[f.Rel] = f
		}
	}
	out := append([]Finding(nil), r.directiveFindings...)
	for _, a := range analyzers {
		for _, fd := range a.Run(r) {
			if f := fileOf[fd.File]; f != nil && f.suppressed(fd.Analyzer, fd.Line) {
				continue
			}
			out = append(out, fd)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// All returns the full analyzer suite in its canonical order.
func All() []Analyzer {
	return []Analyzer{
		NewBoundaries(),
		NewDeterminism(),
		NewCloseCheck(),
	}
}

// Select resolves a comma-separated analyzer selection ("boundaries,closecheck")
// against the full suite.
func Select(only string) ([]Analyzer, error) {
	if only == "" {
		return All(), nil
	}
	byName := make(map[string]Analyzer)
	for _, a := range All() {
		byName[a.Name()] = a
	}
	var out []Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: empty analyzer selection %q", only)
	}
	return out, nil
}

// WriteJSON renders findings as a JSON array (machine-readable output for
// CI annotations and editors). An empty run renders as [] rather than null.
func WriteJSON(w io.Writer, findings []Finding) error {
	if findings == nil {
		findings = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}
