package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Finding is one rule violation, positioned at a file:line the developer can
// jump to. File paths are slash-separated and relative to the repository
// root, so findings are stable across machines and diffable in CI logs.
type Finding struct {
	Check   string // the check that raised it: "determinism", "closecheck", "imports"
	File    string
	Line    int
	Col     int
	Message string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Check, f.Message)
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
	Module string
	Fset   *token.FileSet
	Pkgs   []*Package
}

// skipDir reports directories the loader never descends into: VCS state,
// fixture trees (the go tool ignores "testdata" too), and hidden or
// underscore-prefixed directories.
func skipDir(name string) bool {
	return name == "testdata" || name == "node_modules" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// Load parses every Go file under root into a Repo. Files that fail to parse
// are an error: the checks' guarantees are only as good as their coverage,
// so an unparsable file must fail the run, not shrink it.
func Load(root string) (*Repo, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	r := &Repo{Module: modPath, Fset: token.NewFileSet()}
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
		pkg, ok := byDir[dir]
		if !ok {
			pkg = &Package{Dir: dir}
			byDir[dir] = pkg
		}
		pkg.Files = append(pkg.Files, &File{Rel: rel, Ast: af, Test: strings.HasSuffix(d.Name(), "_test.go")})
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

// finding builds a Finding at a node's position.
func (r *Repo) finding(check string, f *File, pos token.Pos, format string, args ...any) Finding {
	p := r.Fset.Position(pos)
	return Finding{Check: check, File: f.Rel, Line: p.Line, Col: p.Column, Message: fmt.Sprintf(format, args...)}
}

// inModule returns the module-relative form of an import path ("" when the
// path is not part of this module): "repro/internal/core" → "internal/core".
func (r *Repo) inModule(path string) (string, bool) {
	if path == r.Module {
		return "", true
	}
	if rest, ok := strings.CutPrefix(path, r.Module+"/"); ok {
		return rest, true
	}
	return "", false
}

// inTree reports whether a module-relative package directory or import path
// sits at or under the given module-relative tree.
func inTree(dir, tree string) bool {
	return dir == tree || strings.HasPrefix(dir, tree+"/")
}

// importPath unquotes an import spec's path.
func importPath(spec *ast.ImportSpec) string {
	p, err := strconv.Unquote(spec.Path.Value)
	if err != nil {
		return ""
	}
	return p
}

// eachFile calls fn on every file, tests included, with its package
// directory.
func (r *Repo) eachFile(fn func(dir string, f *File)) {
	for _, p := range r.Pkgs {
		for _, f := range p.Files {
			fn(p.Dir, f)
		}
	}
}
