package lint

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// wireTrees are the module-relative subtrees whose output must be
// byte-deterministic: recommendations and every serialized surface (wire
// JSON, .rst snapshots, Prometheus exposition).
var wireTrees = []string{
	"internal/core", "internal/agg", "internal/cube", "internal/shard",
	"internal/obs", "internal/server", "reptile/api",
}

// MapRanges flags, in the wire trees' production files, every `range` over a
// map-typed expression whose body feeds an ordered sink (append to a slice,
// writes to an io.Writer or strings.Builder, an encode/marshal call), unless
// every appended-to slice is passed to a sort call later in the same
// function: the collect-keys-then-sort idiom. Go randomises map iteration
// order per range, so such a loop makes output depend on it.
//
// Map-typedness is resolved syntactically (go/parser + go/ast only, no type
// checker): named map types, map-typed struct fields, map-returning
// functions, and map-typed locals/params declared in the analyzed source are
// recognized. A field x.F is looked up in the struct x is declared as
// wherever the source shows that (a parameter, a var, a composite literal, a
// range over a slice of it); elsewhere by its bare name, and then only a name
// that no struct declares as a non-map counts. The heuristic is deliberately
// conservative: an unrecognized map simply goes unflagged.
func MapRanges(r *Repo) []Finding {
	env := buildMapEnv(r)
	var out []Finding
	r.eachFile(func(dir string, f *File) {
		if !f.Test && slices.ContainsFunc(wireTrees, func(t string) bool { return inTree(dir, t) }) {
			out = append(out, checkMapRanges(r, env, f)...)
		}
	})
	return out
}

// mapEnv is the repository-wide syntactic map-type index.
type mapEnv struct {
	namedTypes map[string]bool // type X map[...]Y declarations, by name
	fields     map[string]bool // struct field names with map-ish declared type
	funcs      map[string]bool // func/method names whose first result is map-ish
	pkgVars    map[string]bool // package-level var names with map-ish type
	// structs holds every struct's fields by declaring type, "pkg.Type": the
	// field's declared type, for deciding x.F where x's struct is known.
	structs map[string]map[string]ast.Expr
	// plainFields are field names some struct declares with a non-map type: as
	// bare names they say nothing.
	plainFields map[string]bool
}

// structOf names the struct a type expression denotes or holds elements of —
// T, *T, []T, [n]T, map[K]T, with or without a package qualifier — as
// "pkg.Type", pkg being the qualifier or else the package the expression sits
// in. elem reports that t is a container of it.
func structOf(pkg string, t ast.Expr) (name string, elem bool) {
	switch t := t.(type) {
	case *ast.Ident:
		return pkg + "." + t.Name, false
	case *ast.SelectorExpr:
		if q, ok := t.X.(*ast.Ident); ok {
			return q.Name + "." + t.Sel.Name, false
		}
	case *ast.StarExpr:
		return structOf(pkg, t.X)
	case *ast.ParenExpr:
		return structOf(pkg, t.X)
	case *ast.ArrayType:
		name, _ = structOf(pkg, t.Elt)
		return name, true
	case *ast.MapType:
		name, _ = structOf(pkg, t.Value)
		return name, true
	}
	return "", false
}

// isMapTypeExpr reports whether a type expression denotes a map, directly or
// through a named map type ("data.Predicate").
func (e *mapEnv) isMapTypeExpr(t ast.Expr) bool {
	switch t := t.(type) {
	case *ast.MapType:
		return true
	case *ast.Ident:
		return e.namedTypes[t.Name]
	case *ast.SelectorExpr:
		return e.namedTypes[t.Sel.Name]
	case *ast.ParenExpr:
		return e.isMapTypeExpr(t.X)
	}
	return false
}

// buildMapEnv indexes every map-ish declaration in the repository. Type,
// function and variable names are tracked unqualified; a cross-package
// collision between a map and a non-map name would over-flag until one side
// is renamed. Struct fields are indexed by declaring struct as well.
func buildMapEnv(r *Repo) *mapEnv {
	e := &mapEnv{
		namedTypes: make(map[string]bool),
		fields:     make(map[string]bool),
		funcs:      make(map[string]bool),
		pkgVars:    make(map[string]bool),

		structs:     make(map[string]map[string]ast.Expr),
		plainFields: make(map[string]bool),
	}
	// Pass 1: named map types, so passes 2–3 resolve fields and results
	// declared through them.
	r.eachFile(func(_ string, f *File) {
		ast.Inspect(f.Ast, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				if _, isMap := ts.Type.(*ast.MapType); isMap {
					e.namedTypes[ts.Name.Name] = true
				}
			}
			return true
		})
	})
	// Pass 2: fields, function results, package vars.
	r.eachFile(func(_ string, f *File) {
		for _, decl := range f.Ast.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Type.Results != nil && len(d.Type.Results.List) > 0 {
					if e.isMapTypeExpr(d.Type.Results.List[0].Type) {
						e.funcs[d.Name.Name] = true
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if st, ok := s.Type.(*ast.StructType); ok {
							declared := make(map[string]ast.Expr)
							e.structs[f.Ast.Name.Name+"."+s.Name.Name] = declared
							for _, fl := range st.Fields.List {
								for _, name := range fl.Names {
									declared[name.Name] = fl.Type
									if e.isMapTypeExpr(fl.Type) {
										e.fields[name.Name] = true
									} else {
										e.plainFields[name.Name] = true
									}
								}
							}
						}
					case *ast.ValueSpec:
						if d.Tok == token.VAR && s.Type != nil && e.isMapTypeExpr(s.Type) {
							for _, name := range s.Names {
								e.pkgVars[name.Name] = true
							}
						}
					}
				}
			}
		}
	})
	return e
}

// checkMapRanges flags order-sensitive loops over maps in one file.
func checkMapRanges(r *Repo, env *mapEnv, f *File) []Finding {
	var out []Finding
	for _, decl := range f.Ast.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		locals := localScope(env, f.Ast.Name.Name, fn)
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if !valueIsMap(env, locals, rs.X) {
				return true
			}
			sinks := orderedSinks(rs.Body)
			if len(sinks.targets) == 0 && !sinks.direct {
				return true
			}
			if sinks.direct {
				out = append(out, r.finding("determinism", f, rs.Pos(),
					"map iteration order feeds encoded output directly; iterate sorted keys instead"))
				return true
			}
			for _, tgt := range sinks.targets {
				if !sortedAfter(fn.Body, rs, tgt) {
					out = append(out, r.finding("determinism", f, rs.Pos(),
						"map iteration order leaks into %q, which is never sorted; sort it before use or iterate sorted keys", tgt))
				}
			}
			return true
		})
	}
	return out
}

// scope is what a function's source shows about its identifiers: which hold
// map values, and which struct ("pkg.Type") the others are declared as.
type scope struct {
	maps    map[string]bool
	structs map[string]string
}

// localStructs maps a function's identifiers to the structs they are declared
// as: receivers, parameters and results, var declarations, composite literals,
// and the value variable of a range over a slice, array or map of structs that
// such an identifier, or a field of one, holds.
func localStructs(env *mapEnv, pkg string, fn *ast.FuncDecl) map[string]string {
	structs, elems := make(map[string]string), make(map[string]string)
	declare := func(name string, t ast.Expr) {
		if s, elem := structOf(pkg, t); elem {
			elems[name] = s
		} else if s != "" {
			structs[name] = s
		}
	}
	for _, fl := range []*ast.FieldList{fn.Recv, fn.Type.Params, fn.Type.Results} {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				declare(name.Name, field.Type)
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok && vs.Type != nil {
						for _, name := range vs.Names {
							declare(name.Name, vs.Type)
						}
					}
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				break
			}
			rhs := n.Rhs[0]
			if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
				rhs = u.X
			}
			if lit, ok := rhs.(*ast.CompositeLit); ok && lit.Type != nil {
				if id, ok := n.Lhs[0].(*ast.Ident); ok {
					declare(id.Name, lit.Type)
				}
			}
		case *ast.RangeStmt:
			v, ok := n.Value.(*ast.Ident)
			if !ok {
				break
			}
			switch x := n.X.(type) {
			case *ast.Ident:
				if s, ok := elems[x.Name]; ok {
					structs[v.Name] = s
				}
			case *ast.SelectorExpr:
				// x.F with x a known struct: F's type is written relative to the
				// package that declares the struct.
				if base, ok := x.X.(*ast.Ident); ok {
					owner := structs[base.Name]
					if t, ok := env.structs[owner][x.Sel.Name]; ok {
						ownerPkg, _, _ := strings.Cut(owner, ".")
						if s, elem := structOf(ownerPkg, t); elem {
							structs[v.Name] = s
						}
					}
				}
			}
		}
		return true
	})
	return structs
}

// localScope scans a function for identifiers that hold map values —
// map-typed parameters and receivers, `var x map[...]`, `x := make(map...)`,
// map composite literals, and assignments from known map-returning calls or
// map fields — beside the structs the others are declared as (localStructs).
func localScope(env *mapEnv, pkg string, fn *ast.FuncDecl) scope {
	locals := scope{maps: make(map[string]bool), structs: localStructs(env, pkg, fn)}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if env.isMapTypeExpr(field.Type) {
				for _, name := range field.Names {
					locals.maps[name.Name] = true
				}
			}
		}
	}
	addFields(fn.Recv)
	addFields(fn.Type.Params)
	addFields(fn.Type.Results)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// Parallel assignment (x, ok := m[k]) never produces a map from
			// a non-map, so only the aligned single-RHS form is tracked.
			if len(n.Rhs) == 1 && len(n.Lhs) >= 1 {
				if valueIsMap(env, locals, n.Rhs[0]) {
					if id, ok := n.Lhs[0].(*ast.Ident); ok {
						locals.maps[id.Name] = true
					}
				}
			}
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok && vs.Type != nil && env.isMapTypeExpr(vs.Type) {
						for _, name := range vs.Names {
							locals.maps[name.Name] = true
						}
					}
				}
			}
		}
		return true
	})
	return locals
}

// valueIsMap reports whether an expression evaluates to a map under the
// syntactic environment.
func valueIsMap(env *mapEnv, locals scope, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		switch fun := e.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "make" && len(e.Args) > 0 {
				return env.isMapTypeExpr(e.Args[0])
			}
			return env.funcs[fun.Name]
		case *ast.SelectorExpr:
			return env.funcs[fun.Sel.Name]
		}
	case *ast.CompositeLit:
		return e.Type != nil && env.isMapTypeExpr(e.Type)
	case *ast.Ident:
		return locals.maps[e.Name] || env.pkgVars[e.Name]
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			if t, ok := env.structs[locals.structs[x.Name]][e.Sel.Name]; ok {
				return env.isMapTypeExpr(t)
			}
		}
		return env.fields[e.Sel.Name] && !env.plainFields[e.Sel.Name]
	case *ast.ParenExpr:
		return valueIsMap(env, locals, e.X)
	}
	return false
}

// sinkScan is the result of scanning a loop body for order-sensitive output.
type sinkScan struct {
	// targets are slice identifiers appended to inside the loop; their
	// element order inherits the map's iteration order.
	targets []string
	// direct marks writes that emit bytes immediately (Fprintf, Write,
	// Encode, WriteString, ...) — unsortable after the fact.
	direct bool
}

// directSinkNames are method/function names that emit ordered output the
// moment they run.
var directSinkNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
	"Encode": true, "Marshal": true, "MarshalJSON": true,
	"AppendBinary": true, "WriteTo": true,
}

// orderedSinks scans a loop body for order-sensitive output operations.
func orderedSinks(body *ast.BlockStmt) sinkScan {
	var scan sinkScan
	seen := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "append" && len(call.Args) > 0 {
				if id, ok := call.Args[0].(*ast.Ident); ok && !seen[id.Name] {
					seen[id.Name] = true
					scan.targets = append(scan.targets, id.Name)
				} else if !ok {
					// Appending to a field or element: not locally sortable.
					scan.direct = true
				}
			}
		case *ast.SelectorExpr:
			if directSinkNames[fun.Sel.Name] {
				scan.direct = true
			}
		}
		return true
	})
	return scan
}

// sortNames are the recognized sorting calls (package sort and slices).
var sortNames = map[string]bool{
	"Strings": true, "Ints": true, "Float64s": true,
	"Slice": true, "SliceStable": true, "Sort": true, "SortFunc": true,
	"SortStableFunc": true, "Stable": true,
}

// sortedAfter reports whether the identifier is passed to a recognized sort
// call positioned after the range statement inside the function body — the
// collect-then-sort idiom that makes map iteration order immaterial.
func sortedAfter(body *ast.BlockStmt, rs *ast.RangeStmt, target string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !sortNames[sel.Sel.Name] || len(call.Args) == 0 {
			return true
		}
		if id, ok := call.Args[0].(*ast.Ident); ok && id.Name == target {
			found = true
			return false
		}
		return true
	})
	return found
}
