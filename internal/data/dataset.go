// Package data provides the relational substrate Reptile runs on: columnar
// in-memory datasets with categorical dimension attributes and numeric
// measures, hierarchy (dimension) metadata with functional-dependency
// validation, filtering with provenance, and CSV I/O.
//
// A value enters a dictionary one way: Interner, which ReadCSV and
// AppendRowVals use per dataset column, store.EncodeBatch per append batch
// and agg.NewResult per attribute. A CSV body is read one way: CSVReader,
// which ReadCSV and the HTTP append handler use. The package imports neither
// internal/store nor internal/cube: a store.Snapshot wraps a Dataset, and a
// cube is attached to one only as an opaque rollup (SetRollup).
//
// There is one column representation. A dimension is a dictionary of its
// distinct values plus one uint32 code per row; a measure is a []float64.
// Whether the backing arrays live on the heap (CSV loads, generators, eager
// .rst opens) or are typed views over a memory-mapped .rst file
// (internal/store) is invisible here: every consumer — group-by,
// factorisation, the cube builder, FD validation — reads the same slices
// through DimCodes and Measure.
package data

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Hierarchy is one dimension of the dataset: an ordered list of attributes
// from least specific to most specific (e.g. [Region, District, Village]).
// Every more specific attribute functionally determines all less specific
// ones (Village → District → Region).
type Hierarchy struct {
	Name  string
	Attrs []string
}

// Contains reports whether the hierarchy includes attribute a.
func (h Hierarchy) Contains(a string) bool {
	for _, x := range h.Attrs {
		if x == a {
			return true
		}
	}
	return false
}

// Level returns the 0-based depth of attribute a, or -1 if absent.
func (h Hierarchy) Level(a string) int {
	for i, x := range h.Attrs {
		if x == a {
			return i
		}
	}
	return -1
}

// Dataset is an immutable-by-convention columnar table: dictionary-coded
// dimension columns and float64 measure columns of identical length. Build
// one row by row (New, then AppendRow/AppendRowVals) or from whole columns
// (FromColumns).
type Dataset struct {
	Name        string
	Hierarchies []Hierarchy

	dimNames     []string
	measureNames []string
	dims         map[string]*dimCol
	measures     map[string][]float64
	n            int
	// rollup is an opaque acceleration attachment (e.g. internal/cube's
	// materialized aggregate lattice) installed by bulk loaders. Its one
	// reader, agg.GroupBy, type-asserts it against agg.Materialized (hierarchy
	// paths included: they are a group-by too); the data package never looks
	// inside. Row-mutating operations drop it.
	rollup any
	// fds maps each FD {child, parent} Validate has verified over the current
	// rows to its *fdTable (an engine over a snapshot the store validated
	// rechecks none, and a successor checks only its appended rows against
	// the table); row writes clear it.
	fds sync.Map
}

// fdTable is a verified FD child → parent as a code table: per child code,
// its parent's code plus one, 0 for a child code no verified row holds. The
// shards validated together share one table over the union of their rows.
// A table is never written once stored: a successor that adds a child code
// copies it first.
type fdTable struct {
	parent []uint32
	rows   int // the rows it covers: the sum over the shards validated together
}

// dimCol is one dimension column: codes index into the dictionary its
// Interner grows. Derived (Clone, Select) and adopted (FromColumns) columns
// start their Interner from the shared dictionary, which it copies before
// growing: another dataset, or a read-only file mapping, still reads it.
type dimCol struct {
	Interner
	codes []uint32
}

// Interner grows one dimension dictionary in first-appearance order, the one
// way a value enters a dictionary. The zero Interner is an empty dictionary.
type Interner struct {
	dict  []string
	index map[string]uint32 // value → code, built by the first Intern
}

// NewInterner starts from dict, which it copies before growing.
func NewInterner(dict []string) Interner { return Interner{dict: dict[:len(dict):len(dict)]} }

// Dict returns the dictionary grown so far.
func (in *Interner) Dict() []string { return in.dict }

// Intern returns v's code, admitting v to the dictionary when it is new and
// ValidDimValue accepts it. The dictionary keeps a clone: v may alias a larger
// buffer (a CSV record, a request body) that a dictionary must not pin.
func (in *Interner) Intern(v string) (uint32, error) {
	if in.index == nil {
		in.index = make(map[string]uint32, len(in.dict))
		for code, dv := range in.dict {
			in.index[dv] = uint32(code)
		}
	}
	code, ok := in.index[v]
	if !ok {
		if err := ValidDimValue(v); err != nil {
			return 0, err
		}
		v = strings.Clone(v)
		code = uint32(len(in.dict))
		in.dict = append(in.dict, v)
		in.index[v] = code
	}
	return code, nil
}

// DimColumn is one dictionary-coded dimension column handed to FromColumns:
// Dict holds the distinct values, Codes one index into Dict per row.
type DimColumn struct {
	Name  string
	Dict  []string
	Codes []uint32
}

// SameDict reports whether two dictionaries hold the same values in the same
// order. Shards of one dataset share one backing array, so the common case
// short-circuits on identity.
func SameDict(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0] || slices.Equal(a, b))
}

// MeasureColumn is one numeric measure column handed to FromColumns.
type MeasureColumn struct {
	Name   string
	Values []float64
}

// New creates an empty dataset with the given dimension and measure columns.
func New(name string, dimNames, measureNames []string, hierarchies []Hierarchy) *Dataset {
	d := &Dataset{
		Name:         name,
		Hierarchies:  hierarchies,
		dimNames:     append([]string(nil), dimNames...),
		measureNames: append([]string(nil), measureNames...),
		dims:         make(map[string]*dimCol, len(dimNames)),
		measures:     make(map[string][]float64, len(measureNames)),
	}
	for _, c := range dimNames {
		d.dims[c] = &dimCol{}
	}
	for _, c := range measureNames {
		d.measures[c] = nil
	}
	return d
}

// FromColumns assembles a dataset from whole columns, adopting the slices
// without copying them (callers must not modify them afterwards). Every
// column must have the same length and every code must index its dictionary;
// dictionary contents (distinct, separator-free values) are the loader's
// responsibility — internal/store checks them on every open.
func FromColumns(name string, dims []DimColumn, measures []MeasureColumn, hierarchies []Hierarchy) (*Dataset, error) {
	return fromColumns(name, dims, measures, hierarchies, 0)
}

// FromColumnsAfter is FromColumns for the columns of base's successor: base's
// rows followed by appended ones, over base's dictionaries or grown copies of
// them. base checked its own codes, so only the codes past its rows are
// range-checked. ValidateAppend then checks the successor's FDs.
func FromColumnsAfter(base *Dataset, dims []DimColumn, measures []MeasureColumn) (*Dataset, error) {
	return fromColumns(base.Name, dims, measures, slices.Clone(base.Hierarchies), base.n)
}

// fromColumns is FromColumns, range-checking the codes of rows from checked on.
func fromColumns(name string, dims []DimColumn, measures []MeasureColumn, hierarchies []Hierarchy, checked int) (*Dataset, error) {
	d := &Dataset{
		Name:        name,
		Hierarchies: hierarchies,
		dims:        make(map[string]*dimCol, len(dims)),
		measures:    make(map[string][]float64, len(measures)),
	}
	switch {
	case len(dims) > 0:
		d.n = len(dims[0].Codes)
	case len(measures) > 0:
		d.n = len(measures[0].Values)
	}
	for _, c := range dims {
		if len(c.Codes) != d.n {
			return nil, fmt.Errorf("data: column %q has %d rows, dataset %q has %d", c.Name, len(c.Codes), name, d.n)
		}
		if i := firstCodeOutOf(c.Codes[checked:], len(c.Dict)); i >= 0 {
			i += checked
			return nil, fmt.Errorf("data: dimension %q row %d: code %d out of range (dictionary size %d)", c.Name, i, c.Codes[i], len(c.Dict))
		}
		d.dimNames = append(d.dimNames, c.Name)
		d.dims[c.Name] = &dimCol{Interner: NewInterner(c.Dict), codes: c.Codes[:d.n:d.n]}
	}
	for _, m := range measures {
		if len(m.Values) != d.n {
			return nil, fmt.Errorf("data: column %q has %d rows, dataset %q has %d", m.Name, len(m.Values), name, d.n)
		}
		d.measureNames = append(d.measureNames, m.Name)
		d.measures[m.Name] = m.Values[:d.n:d.n]
	}
	return d, nil
}

// firstCodeOutOf returns the index of the first code not below size, or -1.
// FromColumns' range check runs over every code of a file it opens; as a loop
// of its own it holds size in a register rather than reloading it per code.
func firstCodeOutOf(codes []uint32, size int) int {
	for i, code := range codes {
		if int(code) >= size {
			return i
		}
	}
	return -1
}

// NumRows returns the number of rows.
func (d *Dataset) NumRows() int { return d.n }

// DimNames returns the dimension column names in declaration order.
func (d *Dataset) DimNames() []string { return append([]string(nil), d.dimNames...) }

// MeasureNames returns the measure column names in declaration order.
func (d *Dataset) MeasureNames() []string { return append([]string(nil), d.measureNames...) }

// HasDim reports whether the dataset has dimension column name.
func (d *Dataset) HasDim(name string) bool { _, ok := d.dims[name]; return ok }

// HasMeasure reports whether the dataset has measure column name.
func (d *Dataset) HasMeasure(name string) bool { _, ok := d.measures[name]; return ok }

// dim returns the dimension column by name, panicking on an unknown one.
func (d *Dataset) dim(name string) *dimCol {
	col, ok := d.dims[name]
	if !ok {
		panic(fmt.Sprintf("data: unknown dimension %q in dataset %q", name, d.Name))
	}
	return col
}

// Dim materializes the dimension column by name as strings — a fresh slice
// per call. It is a convenience for generators, error injectors and small
// auxiliary tables; row scans read DimCodes.
func (d *Dataset) Dim(name string) []string {
	col := d.dim(name)
	out := make([]string, len(col.codes))
	for i, c := range col.codes {
		out[i] = col.dict[c]
	}
	return out
}

// Measure returns the measure column by name. The returned slice is shared;
// callers must not modify it.
func (d *Dataset) Measure(name string) []float64 {
	col, ok := d.measures[name]
	if !ok {
		panic(fmt.Sprintf("data: unknown measure %q in dataset %q", name, d.Name))
	}
	return col
}

// DimCodes returns a dimension column: the dictionary of distinct values and
// one code per row. A dictionary may hold values no row uses (row subsets
// keep their source's dictionary). Both slices are shared; callers must not
// modify them.
func (d *Dataset) DimCodes(name string) (dict []string, codes []uint32) {
	col := d.dim(name)
	return col.dict, col.codes
}

// SetRollup attaches an opaque precomputed-aggregate provider to the dataset.
// The attachment must have been derived from exactly these rows: consumers
// trust it to answer aggregation queries without rescanning. Subset
// operations (Select, Filter, Where) and row appends do not carry it over.
func (d *Dataset) SetRollup(r any) { d.rollup = r }

// Rollup returns the dataset's precomputed-aggregate attachment, or nil.
func (d *Dataset) Rollup() any { return d.rollup }

// keySep joins dimension values into group keys (EncodeKey). A value
// containing it would make two different tuples share one key, so no
// dictionary admits one: see ValidDimValue.
const keySep = "\x1f"

// ValidDimValue reports whether v may enter a dimension dictionary. Interner,
// where every dictionary grows, and the snapshot open, which checks a file's
// dictionaries, call it, so group keys built from dictionary values always
// decode back to the tuple they encode.
func ValidDimValue(v string) error {
	if strings.Contains(v, keySep) {
		return fmt.Errorf("dimension value %q contains the reserved group-key separator %q", v, keySep)
	}
	return nil
}

// AppendRow adds one row. dims and measures are keyed by column name; every
// declared column must be present. Like AppendRowVals it is an API for
// generators and panics on misuse, including a dimension value that
// ValidDimValue rejects; outside input enters through ReadCSV or
// internal/store, which report errors.
func (d *Dataset) AppendRow(dims map[string]string, measures map[string]float64) {
	dimVals := make([]string, len(d.dimNames))
	for i, c := range d.dimNames {
		v, ok := dims[c]
		if !ok {
			panic(fmt.Sprintf("data: AppendRow missing dimension %q", c))
		}
		dimVals[i] = v
	}
	measureVals := make([]float64, len(d.measureNames))
	for i, c := range d.measureNames {
		v, ok := measures[c]
		if !ok {
			panic(fmt.Sprintf("data: AppendRow missing measure %q", c))
		}
		measureVals[i] = v
	}
	d.AppendRowVals(dimVals, measureVals)
}

// AppendRowVals adds one row with dimension and measure values given in
// declaration order. It is the fast path for generators.
func (d *Dataset) AppendRowVals(dimVals []string, measureVals []float64) {
	if len(dimVals) != len(d.dimNames) || len(measureVals) != len(d.measureNames) {
		panic(fmt.Sprintf("data: AppendRowVals arity mismatch: %d/%d dims, %d/%d measures",
			len(dimVals), len(d.dimNames), len(measureVals), len(d.measureNames)))
	}
	d.rollup = nil // precomputed aggregates no longer cover every row
	d.fds.Clear()
	for i, c := range d.dimNames {
		col := d.dims[c]
		code, err := col.Intern(dimVals[i])
		if err != nil {
			// Take the half-appended row back out before reporting.
			for _, prev := range d.dimNames[:i] {
				d.dims[prev].codes = d.dims[prev].codes[:d.n]
			}
			panic(fmt.Sprintf("data: AppendRowVals dimension %q: %v", c, err))
		}
		col.codes = append(col.codes, code)
	}
	for i, c := range d.measureNames {
		d.measures[c] = append(d.measures[c], measureVals[i])
	}
	d.n++
}

// SetDimValue overwrites one dimension value in place — the relabelling
// primitive of the error injectors. The dataset must own its columns (built
// by AppendRow*, or a Clone), like every in-place write to Measure's slice.
func (d *Dataset) SetDimValue(name string, row int, v string) {
	col := d.dim(name)
	code, err := col.Intern(v)
	if err != nil {
		panic(fmt.Sprintf("data: SetDimValue dimension %q: %v", name, err))
	}
	d.rollup = nil
	d.fds.Clear()
	col.codes[row] = code
}

// Clone returns a deep copy of the dataset's rows. Dictionaries are shared
// (see dimCol: growing one copies it first).
func (d *Dataset) Clone() *Dataset {
	c := New(d.Name, d.dimNames, d.measureNames, d.Hierarchies)
	for name, col := range d.dims {
		c.dims[name] = &dimCol{Interner: NewInterner(col.dict), codes: append([]uint32(nil), col.codes...)}
	}
	for name, col := range d.measures {
		c.measures[name] = append([]float64(nil), col...)
	}
	c.n = d.n
	return c
}

// Select returns a new dataset containing the rows at the given indices, in
// order. Indices may repeat (used by error injectors to duplicate rows).
// Row selection preserves dictionaries: the subset's codes index the same
// dict, possibly leaving entries unused.
func (d *Dataset) Select(idx []int) *Dataset {
	out := New(d.Name, d.dimNames, d.measureNames, d.Hierarchies)
	for name, col := range d.dims {
		sel := make([]uint32, len(idx))
		for i, r := range idx {
			sel[i] = col.codes[r]
		}
		out.dims[name] = &dimCol{Interner: NewInterner(col.dict), codes: sel}
	}
	for name, col := range d.measures {
		sel := make([]float64, len(idx))
		for i, r := range idx {
			sel[i] = col[r]
		}
		out.measures[name] = sel
	}
	out.n = len(idx)
	return out
}

// Predicate is a conjunction of attribute = value conditions.
type Predicate map[string]string

// ForEachMatch calls fn with the index of every row satisfying every
// condition of p, in row order. Each condition is resolved to a dictionary
// code once, so the per-row test is an integer compare.
func (d *Dataset) ForEachMatch(p Predicate, fn func(row int)) {
	type cond struct {
		codes []uint32
		want  uint32
	}
	conds := make([]cond, 0, len(p))
	for attr, want := range p {
		col := d.dim(attr)
		code := -1
		for i, v := range col.dict {
			if v == want {
				code = i
				break
			}
		}
		if code < 0 {
			return // value absent from the dictionary: no row can match
		}
		conds = append(conds, cond{codes: col.codes, want: uint32(code)})
	}
rows:
	for row := 0; row < d.n; row++ {
		for _, c := range conds {
			if c.codes[row] != c.want {
				continue rows
			}
		}
		fn(row)
	}
}

// Where returns the provenance of predicate p: the sub-dataset of rows whose
// dimension values match every condition.
func (d *Dataset) Where(p Predicate) *Dataset {
	if len(p) == 0 {
		return d.Clone()
	}
	var idx []int
	d.ForEachMatch(p, func(row int) { idx = append(idx, row) })
	return d.Select(idx)
}

// HierarchyOf returns the hierarchy containing attribute a, or false.
func (d *Dataset) HierarchyOf(a string) (Hierarchy, bool) {
	for _, h := range d.Hierarchies {
		if h.Contains(a) {
			return h, true
		}
	}
	return Hierarchy{}, false
}

// Validate checks structural invariants: every hierarchy attribute exists as
// a dimension, hierarchies do not share attributes, and within each hierarchy
// every more specific attribute functionally determines its parent (the FD
// A_n → A_m for m < n required by the problem definition). Each FD it verifies
// is kept as a child → parent code table until the next row write, and
// rechecked by no later Validate.
func (d *Dataset) Validate() error { return ValidateShards([]*Dataset{d}) }

// ValidateShards is Validate over the union of the shards' rows: shards of one
// dataset, which share its schema, read off the first, and its dictionaries.
// Every hierarchy FD is checked in one pass over all the shards' columns —
// a violation whose two witnesses sit in different shards included — and its
// table over the union is then kept by each shard, whose rows are a subset of
// the union. A shard's own table does not cover the union, so only a lone
// dataset skips the FDs it has verified already.
func ValidateShards(shards []*Dataset) error { return validate(nil, shards) }

// ValidateAppend is ValidateShards over successors: shards[i] holds the rows
// of bases[i] followed by appended ones, over the same or grown dictionaries.
// An FD whose table the bases share, over exactly their rows, is checked over
// the appended rows alone against that table, which the successors extend
// copy-on-write. Any other FD — the bases hold no table, or tables that differ
// or cover other rows (retention, a Where/Select/Clone result, a row write)
// — gets ValidateShards' full pass.
func ValidateAppend(bases, shards []*Dataset) error { return validate(bases, shards) }

func validate(bases, shards []*Dataset) error {
	first := shards[0]
	seen := make(map[string]string)
	for _, h := range first.Hierarchies {
		if len(h.Attrs) == 0 {
			return fmt.Errorf("data: hierarchy %q has no attributes", h.Name)
		}
		for _, a := range h.Attrs {
			if !first.HasDim(a) {
				return fmt.Errorf("data: hierarchy %q references unknown attribute %q", h.Name, a)
			}
			if prev, dup := seen[a]; dup {
				return fmt.Errorf("data: attribute %q appears in hierarchies %q and %q", a, prev, h.Name)
			}
			seen[a] = h.Name
		}
		for lvl := 1; lvl < len(h.Attrs); lvl++ {
			fd := [2]string{h.Attrs[lvl], h.Attrs[lvl-1]}
			if _, verified := first.fds.Load(fd); verified && len(shards) == 1 {
				continue
			}
			t, from := sharedTable(bases, fd, len(shards))
			t, err := checkFD(shards, from, t, fd[0], fd[1])
			if err != nil {
				return fmt.Errorf("data: hierarchy %q: %w", h.Name, err)
			}
			for _, d := range shards {
				d.fds.Store(fd, t)
			}
		}
	}
	return nil
}

// sharedTable returns fd's table when every base holds the same one over
// exactly their rows, with each shard's first row past its base's: the rows
// left to check. Otherwise it returns an empty table and every row.
func sharedTable(bases []*Dataset, fd [2]string, shards int) (*fdTable, []int) {
	from, rows := make([]int, shards), 0
	var t *fdTable
	for i, b := range bases {
		v, _ := b.fds.Load(fd)
		bt, _ := v.(*fdTable)
		if bt == nil || (t != nil && bt != t) {
			return &fdTable{}, make([]int, shards)
		}
		t, from[i], rows = bt, b.n, rows+b.n
	}
	if t == nil || t.rows != rows {
		return &fdTable{}, make([]int, shards)
	}
	return t, from
}

// checkFD verifies the functional dependency child → parent over the rows of
// every shard from from[i] on, against t, a table over the rows before them:
// one pass over the two code columns, with heap bounded by the child
// dictionary's size. It returns the table over all the shards' rows, which
// shares t's codes when no row adds a child code. Every shard must code both
// attributes against the first one's dictionaries.
func checkFD(shards []*Dataset, from []int, t *fdTable, child, parent string) (*fdTable, error) {
	cdict, pdict := shards[0].dims[child].dict, shards[0].dims[parent].dict
	parents, copied, rows := t.parent, false, 0
	if len(parents) < len(cdict) {
		// The dictionary grew past the table (or there is none yet): copy it
		// to the dictionary's size, which covers every code.
		parents, copied = make([]uint32, len(cdict)), true
		copy(parents, t.parent)
	}
	for si, d := range shards {
		cc, pc := d.dims[child], d.dims[parent]
		if cc == nil || pc == nil || !SameDict(cc.dict, cdict) || !SameDict(pc.dict, pdict) {
			return nil, fmt.Errorf("shard %d does not share shard 0's %s and %s dictionaries", si, child, parent)
		}
		rows += d.n
		ccodes, pcodes := cc.codes[from[si]:], pc.codes[from[si]:]
		if !copied {
			// Copy on write: only a row the table does not hold yet needs one.
			i := firstUnrecorded(ccodes, pcodes, parents)
			if i < 0 {
				continue
			}
			parents, copied = slices.Clone(parents), true
			ccodes, pcodes = ccodes[i:], pcodes[i:]
		}
		// pcodes[i] is read again, not held in a variable the error path
		// needs: that would be spilled to the stack on every row.
		for i, c := range ccodes {
			if q := parents[c]; q != pcodes[i]+1 {
				if q != 0 {
					return nil, fmt.Errorf("FD violation: %s=%q maps to %s=%q and %q",
						child, cdict[c], parent, pdict[q-1], pdict[pcodes[i]])
				}
				parents[c] = pcodes[i] + 1
			}
		}
	}
	return &fdTable{parent: parents, rows: rows}, nil
}

// firstUnrecorded returns the index of the first row whose child → parent
// pair parents does not hold, or -1.
func firstUnrecorded(ccodes, pcodes, parents []uint32) int {
	for i, c := range ccodes {
		if parents[c] != pcodes[i]+1 {
			return i
		}
	}
	return -1
}

// EncodeKey joins dimension values into a group key. Dictionaries never
// admit a value containing the separator (ValidDimValue), so EncodeKey and
// DecodeKey round-trip on every tuple a dataset can hold.
func EncodeKey(vals []string) string { return strings.Join(vals, keySep) }

// RowKey returns the group key of row over the given attributes.
func (d *Dataset) RowKey(row int, attrs []string) string {
	vals := make([]string, len(attrs))
	for i, a := range attrs {
		col := d.dim(a)
		vals[i] = col.dict[col.codes[row]]
	}
	return EncodeKey(vals)
}
