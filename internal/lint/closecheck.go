package lint

import (
	"go/ast"
)

// CloseCheck flags resource constructors whose result is neither closed nor
// handed off. The engine holds three kinds of OS-backed handles — *os.File,
// the WAL, and mmap-backed snapshots — and a leaked one is invisible in tests
// (the process exits) but fatal in the long-lived server: file descriptors
// and mappings accumulate until the kernel says no.
//
// The analysis is a deliberately simple per-function AST heuristic. A call to
// a known constructor binds its closeable result to an identifier; within the
// same function that identifier must either
//
//   - receive a .Close() (or unexported .close()) call, deferred or not, or
//   - escape: be returned, stored into a struct field, slice, map, or
//     composite literal, passed to another function, aliased, sent on a
//     channel, or have its address taken — ownership moved somewhere this
//     function cannot see.
//
// Anything else is a leak at function exit on at least one path. False
// positives (an exotic ownership transfer the walker cannot classify) carry a
// `//lint:ignore closecheck <reason>` directive. Test files are exempt:
// t.TempDir and process exit bound their leaks.
type CloseCheck struct {
	// Constructors maps "pkg.Func" (module-relative or stdlib package path)
	// to the index of the closeable value in the call's result list.
	Constructors map[string]int
}

// NewCloseCheck returns the analyzer bound to the repository's resource
// constructors.
func NewCloseCheck() *CloseCheck {
	return &CloseCheck{Constructors: map[string]int{
		"os.Open":       0,
		"os.Create":     0,
		"os.OpenFile":   0,
		"os.CreateTemp": 0,

		"internal/wal.Open": 0,

		"internal/store.OpenMappedFile": 0,
		"internal/store.OpenShardsFile": 1,

		"internal/shard.Open": 0,

		// A dataset holds an open log (Recover) and possibly its set's file
		// mapping.
		"internal/ingest.Open":    0,
		"internal/ingest.Recover": 0,
	}}
}

// Name implements Analyzer.
func (*CloseCheck) Name() string { return "closecheck" }

// Doc implements Analyzer.
func (*CloseCheck) Doc() string {
	return "require a reachable Close (or ownership hand-off) for file/WAL/mmap constructor results"
}

// Run implements Analyzer.
func (c *CloseCheck) Run(r *Repo) []Finding {
	var out []Finding
	for _, pkg := range r.Pkgs {
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			out = append(out, c.checkFile(r, f)...)
		}
	}
	return out
}

// importLocals maps each import's local identifier to its path, skipping dot
// and blank imports.
func importLocals(f *ast.File) map[string]string {
	m := make(map[string]string)
	for _, spec := range f.Imports {
		path := importPathOf(spec)
		if path == "" {
			continue
		}
		name := ""
		if spec.Name != nil {
			if spec.Name.Name == "." || spec.Name.Name == "_" {
				continue
			}
			name = spec.Name.Name
		} else if i := lastSlash(path); i >= 0 {
			name = path[i+1:]
		} else {
			name = path
		}
		m[name] = path
	}
	return m
}

// constructorOf resolves a call expression against the constructor table,
// returning the closeable result index.
func (c *CloseCheck) constructorOf(r *Repo, imports map[string]string, call *ast.CallExpr) (int, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return 0, false
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok {
		return 0, false
	}
	path, ok := imports[x.Name]
	if !ok {
		return 0, false
	}
	if rel, inMod := r.InModule(path); inMod {
		path = rel
	}
	idx, ok := c.Constructors[path+"."+sel.Sel.Name]
	return idx, ok
}

func (c *CloseCheck) checkFile(r *Repo, f *File) []Finding {
	var out []Finding
	imports := importLocals(f.Ast)
	for _, decl := range f.Ast.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				return true
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			idx, ok := c.constructorOf(r, imports, call)
			if !ok || idx >= len(as.Lhs) {
				return true
			}
			id, ok := as.Lhs[idx].(*ast.Ident)
			if !ok || id.Name == "_" {
				return true
			}
			if !closedOrEscapes(fn.Body, id.Name, call) {
				out = append(out, r.finding(c.Name(), f, as.Pos(),
					"%q is opened here but never closed and never leaves the function; close it (defer %s.Close()) or hand ownership off", id.Name, id.Name))
			}
			return true
		})
	}
	return out
}

// closedOrEscapes reports whether the named identifier is closed or escapes
// the function, scanning the whole body (flow-insensitively) and skipping the
// constructor call itself.
func closedOrEscapes(body *ast.BlockStmt, name string, ctor *ast.CallExpr) bool {
	uses := func(e ast.Expr) bool { return exprUses(e, name) }
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if n == ctor {
				return false // don't treat the constructor's own args as an escape
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == name &&
					(sel.Sel.Name == "Close" || sel.Sel.Name == "close") {
					found = true
					return false
				}
			}
			for _, arg := range n.Args {
				if uses(arg) {
					found = true // ownership handed to the callee
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if uses(res) {
					found = true
					return false
				}
			}
		case *ast.AssignStmt:
			blankOnly := true
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
					blankOnly = false
				}
			}
			if blankOnly {
				return true // `_ = f` discards; it moves ownership nowhere
			}
			rhsUses := false
			for _, rhs := range n.Rhs {
				if uses(rhs) {
					rhsUses = true
				}
			}
			if rhsUses {
				// Stored into a field/element, or aliased to another name:
				// either way this function no longer solely owns it.
				found = true
				return false
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if uses(elt) {
					found = true
					return false
				}
			}
		case *ast.SendStmt:
			if uses(n.Value) {
				found = true
				return false
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "&" && uses(n.X) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// exprUses reports whether the expression mentions the named identifier,
// excluding selector fields (x.name does not use "name").
func exprUses(e ast.Expr, name string) bool {
	used := false
	ast.Inspect(e, func(n ast.Node) bool {
		if used {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// Only the operand side can reference the identifier.
			if exprUses(n.X, name) {
				used = true
			}
			return false
		case *ast.Ident:
			if n.Name == name {
				used = true
			}
		}
		return !used
	})
	return used
}
