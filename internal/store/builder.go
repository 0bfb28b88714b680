package store

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/cube"
	"repro/internal/data"
)

// Row is one ingested record: dimension values in Snapshot.Dims order and
// measure values in Snapshot.Measures order.
type Row struct {
	Dims     []string
	Measures []float64
}

// Builder appends rows to a snapshot lineage. Each Append produces a new
// immutable Snapshot with Version+1 — the base snapshot's rows, and every
// dataset or engine derived from it, are never changed (dictionaries are
// extended copy-on-write, so unchanged prefixes are shared). A successor's
// columns are the base's backing arrays grown in place, past the base's rows,
// when it is the first successor to claim their spare capacity, and a copy
// otherwise (Batch.grow); a flush checks only the batch (Batch.Extend). A
// Builder is not safe for concurrent use; callers serialize Appends per
// dataset. Snapshots extended concurrently by several callers each still get
// their own rows.
type Builder struct {
	base *Snapshot
}

// NewBuilder starts an append lineage on top of base.
func NewBuilder(base *Snapshot) *Builder {
	return &Builder{base: base}
}

// Snapshot returns the builder's current (latest) snapshot.
func (b *Builder) Snapshot() *Snapshot { return b.base }

// Append encodes rows against the current snapshot and returns the new
// version. New dimension values extend the dictionaries; the result is
// validated (hierarchy functional dependencies included, over the batch's
// rows) before it becomes the builder's new base, so a bad batch leaves the
// lineage unchanged.
func (b *Builder) Append(rows []Row) (*Snapshot, error) {
	if len(rows) == 0 {
		return b.base, nil
	}
	batch, err := EncodeBatch(b.base, rows)
	if err != nil {
		return nil, err
	}
	next, err := batch.Extend(b.base)
	if err != nil {
		return nil, err
	}
	b.base = next
	return next, nil
}

// Batch is one append batch validated and dictionary-encoded, column by
// column, against a snapshot's dictionaries. It is the store's one append
// routine: Builder.Append extends one snapshot with it, internal/shard routes
// its rows across the shards of a set (Pick) and extends each, so dictionary
// growth happens once and every shard of the successor shares it. Its values
// enter the dictionaries through data.Interner, as a CSV load's do, so
// appending rows codes them as loading them with the base's rows would.
type Batch struct {
	n      int         // batch rows
	dicts  [][]string  // per dimension: the base dictionary grown by the batch
	codes  [][]uint32  // per dimension: one code per batch row
	values [][]float64 // per measure: one value per batch row
}

// EncodeBatch validates rows against base's schema (arity, finite measures)
// and interns their dimension values into base's dictionaries through
// data.Interner, growing them in batch row order — copy-on-write, so base and
// its siblings keep their own. Mapped snapshots reject appends.
func EncodeBatch(base *Snapshot, rows []Row) (*Batch, error) {
	if base.Mapped() {
		// Extending a mapped snapshot would have to materialize every column
		// it shares with the successor, defeating the open mode's purpose.
		return nil, fmt.Errorf("store: cannot append to memory-mapped snapshot %q; re-open it eagerly to ingest", base.Name)
	}
	if err := CheckRows(base, rows); err != nil {
		return nil, err
	}
	b := &Batch{
		n:      len(rows),
		dicts:  make([][]string, len(base.Dims)),
		codes:  make([][]uint32, len(base.Dims)),
		values: make([][]float64, len(base.Measures)),
	}
	for ci, c := range base.Dims {
		// The interner copies c.Dict before growing it, so base and its
		// siblings keep their own.
		in := data.NewInterner(c.Dict)
		codes := make([]uint32, len(rows))
		for ri, r := range rows {
			code, err := in.Intern(r.Dims[ci])
			if err != nil {
				return nil, fmt.Errorf("store: append row %d dimension %q: %w", ri+1, c.Name, err)
			}
			codes[ri] = code
		}
		b.dicts[ci], b.codes[ci] = in.Dict(), codes
	}
	for mi := range base.Measures {
		vals := make([]float64, len(rows))
		for ri, r := range rows {
			vals[ri] = r.Measures[mi]
		}
		b.values[mi] = vals
	}
	return b, nil
}

// CheckRows reports the first of rows that base's schema cannot take: wrong
// arity, a non-finite measure, or a dimension value ValidDimValue rejects.
// Rows are numbered from 1, as data.CSVReader numbers a body's records.
func CheckRows(base *Snapshot, rows []Row) error {
	for i, r := range rows {
		if len(r.Dims) != len(base.Dims) || len(r.Measures) != len(base.Measures) {
			return fmt.Errorf("store: append row %d: arity mismatch: %d/%d dims, %d/%d measures",
				i+1, len(r.Dims), len(base.Dims), len(r.Measures), len(base.Measures))
		}
		for j, v := range r.Measures {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("store: append row %d measure %q: non-finite value %v", i+1, base.Measures[j].Name, v)
			}
		}
		for j, v := range r.Dims {
			if err := data.ValidDimValue(v); err != nil {
				return fmt.Errorf("store: append row %d dimension %q: %w", i+1, base.Dims[j].Name, err)
			}
		}
	}
	return nil
}

// Pick returns the sub-batch holding the listed batch rows, in that order,
// sharing the grown dictionaries — the part of the batch one shard owns.
func (b *Batch) Pick(rows []int) *Batch {
	sub := &Batch{n: len(rows), dicts: b.dicts, codes: make([][]uint32, len(b.codes)), values: make([][]float64, len(b.values))}
	for ci, codes := range b.codes {
		sub.codes[ci] = make([]uint32, len(rows))
		for i, ri := range rows {
			sub.codes[ci][i] = codes[ri]
		}
	}
	for mi, vals := range b.values {
		sub.values[mi] = make([]float64, len(rows))
		for i, ri := range rows {
			sub.values[mi][i] = vals[ri]
		}
	}
	return sub
}

// Extend returns base's successor at Version+1: base's rows followed by the
// batch's, over the grown dictionaries. base must be the snapshot the batch
// was encoded against or a shard sharing its dictionaries. The successor is
// validated and base's rows are never changed. An empty batch still moves the
// version and dictionaries along, sharing base's columns; base's cube is
// carried over as carryCube says.
//
// A flush costs O(batch) but for one copy of the cube's cell tables and, once
// per growth of append's capacity, of the columns (see grow). What it checks:
// the batch's codes against the grown dictionaries, and every hierarchy FD
// over the batch's rows against the base's verified FD tables. EncodeBatch
// admitted the values the dictionaries gained, and base checked its own rows,
// so neither is re-read. A base without tables over exactly its rows — a
// snapshot whose dataset was never built, a shard of a partitioned file
// extended on its own — gets the full FD pass over every row.
func (b *Batch) Extend(base *Snapshot) (*Snapshot, error) {
	next, err := ExtendShards([]*Snapshot{base}, []*Batch{b})
	if err != nil {
		return nil, err
	}
	return next[0], nil
}

// ExtendShards extends each shard of a set by its part of one batch (parts[i]
// is bases[i]'s, from Batch.Pick) and returns the successors. Each shard's
// columns grow as Extend's do, and its cube is carried over, but the hierarchy
// FDs are checked once, over the union of the successors' rows: every appended
// row against the bases' shared FD tables (data.ValidateAppend), or, where the
// bases share none, every row. A violation anywhere rejects every part.
func ExtendShards(bases []*Snapshot, parts []*Batch) ([]*Snapshot, error) {
	next, claimed := make([]*Snapshot, len(bases)), make([]bool, len(bases))
	for i, base := range bases {
		next[i], claimed[i] = parts[i].grow(base)
	}
	err := validateAppend(bases, next)
	for i := 0; err == nil && i < len(next); i++ {
		err = carryCube(bases[i], next[i])
	}
	if err != nil {
		// The successors are discarded: hand the spare capacity they claimed
		// back to their bases.
		for i, c := range claimed {
			if c {
				next[i].claim.CompareAndSwap(int64(next[i].rows), int64(bases[i].rows))
			}
		}
		return nil, err
	}
	return next, nil
}

// grow returns base's successor, unvalidated: its columns are base's followed
// by the batch's rows. They grow in place, into the spare capacity append left
// behind the base's rows, when this successor is the first to claim it: the
// base's lineage shares a claim, the row count of the one successor that may
// write past it, and grow takes it by moving it from base.rows to its own row
// count (claimed reports that). Any later successor of the same base finds the
// claim moved on and copies the columns, starting a claim of its own; so do
// the successors of a snapshot whose columns the store does not own (FromDataset,
// retention, Partition, file opens), which carry no claim. Two successors of one
// base thus never share a tail, and a copy is paid once per growth of append's
// capacity, not per flush.
func (b *Batch) grow(base *Snapshot) (next *Snapshot, claimed bool) {
	next = &Snapshot{
		Name:        base.Name,
		Version:     base.Version + 1,
		Hierarchies: base.Hierarchies,
		Dims:        make([]Column, len(base.Dims)),
		Measures:    make([]MeasureColumn, len(base.Measures)),
		rows:        base.rows + b.n,
		claim:       base.claim,
	}
	switch {
	case b.n == 0: // the successor shares base's columns, and so their claim
	case base.claim != nil && base.claim.CompareAndSwap(int64(base.rows), int64(next.rows)):
		claimed = true
	default:
		next.claim = new(atomic.Int64)
		next.claim.Store(int64(next.rows))
	}
	for ci, c := range base.Dims {
		codes := c.Codes
		if b.n > 0 {
			if !claimed {
				codes = codes[:len(codes):len(codes)]
			}
			codes = append(codes, b.codes[ci]...)
		}
		next.Dims[ci] = Column{Name: c.Name, Dict: b.dicts[ci], Codes: codes}
	}
	for mi, m := range base.Measures {
		vals := m.Values
		if b.n > 0 {
			if !claimed {
				vals = vals[:len(vals):len(vals)]
			}
			vals = append(vals, b.values[mi]...)
		}
		next.Measures[mi] = MeasureColumn{Name: m.Name, Values: vals}
	}
	return next, claimed
}

// validateAppend validates the successors grow built: their datasets, which
// range-check only the appended codes when the base's dataset checked the
// rest, then the hierarchy FDs across all of them (data.ValidateAppend).
// EncodeBatch admitted every value the dictionaries gained, so, unlike
// validate, it does not re-read the dictionaries.
func validateAppend(bases, next []*Snapshot) error {
	bds, nds := make([]*data.Dataset, len(bases)), make([]*data.Dataset, len(next))
	for i, n := range next {
		bds[i] = bases[i].ds
		var err error
		if bds[i] == nil {
			nds[i], err = n.Dataset()
		} else if nds[i], err = data.FromColumnsAfter(bds[i], n.Dims, n.Measures); err == nil {
			n.ds = nds[i]
		}
		if err != nil {
			return fmt.Errorf("store: snapshot %q: %w", n.Name, err)
		}
	}
	var err error
	if slices.Contains(bds, nil) {
		err = data.ValidateShards(nds)
	} else {
		err = data.ValidateAppend(bds, nds)
	}
	if err != nil {
		return fmt.Errorf("store: snapshot %q: %w", next[0].Name, err)
	}
	return nil
}

// carryCube maintains base's materialized cube across an append without
// rebuilding it: a delta cube built over just the appended rows is merged in
// (Stats.Add per shared cell, base's cells between them copied as runs; see
// cube.Merge), and the merge re-keys base's cells into the grown
// dictionaries' radix space at the levels whose attributes' dictionaries
// grew. The merged cell tables are the successor's own: a flush copies every
// table once, where its columns mostly grow in place. A successor that gained
// no rows still merges the empty delta when the batch grew a dictionary, so
// every cube codes against its own snapshot's dictionaries — the ones a file
// persists beside it and a gather merges shards on. Only an append that
// neither adds rows nor grows a dictionary keeps the cube as-is. When the
// grown dictionaries push the successor outside what the cube subsystem
// materializes (e.g. the composite key space overflows), the successor
// simply carries no cube and serving falls back to row scans.
func carryCube(base, next *Snapshot) error {
	if base.cube == nil {
		return nil
	}
	grew := false
	for ci := range next.Dims {
		grew = grew || len(next.Dims[ci].Dict) != len(base.Dims[ci].Dict)
	}
	if next.rows == base.rows && !grew {
		next.attachCube(base.cube)
		return nil
	}
	nds, err := next.Dataset()
	if err != nil {
		return err
	}
	delta, err := cube.BuildRows(nds, base.rows, next.rows)
	if err == nil {
		var merged *cube.Cube
		if merged, err = base.cube.Merge(delta); err == nil {
			next.attachCube(merged)
			return nil
		}
	}
	if errors.Is(err, cube.ErrNotCubable) {
		return nil
	}
	return err
}
