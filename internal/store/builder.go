package store

import (
	"errors"
	"fmt"
	"math"

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
// immutable Snapshot with Version+1 — the base snapshot, and every dataset or
// engine derived from it, is never mutated (dictionaries are extended
// copy-on-write, so unchanged prefixes are shared). A Builder is not safe for
// concurrent use; callers serialize Appends per dataset.
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
// validated (hierarchy functional dependencies included) before it becomes
// the builder's new base, so a bad batch leaves the lineage unchanged.
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
// column, against a snapshot's dictionaries. It is the single ingestion
// routine: Builder.Append extends one snapshot with it, internal/shard routes
// its rows across the shards of a set (Pick) and extends each, so dictionary
// growth happens once and every shard of the successor shares it.
type Batch struct {
	n      int         // batch rows
	dicts  [][]string  // per dimension: the base dictionary grown by the batch
	codes  [][]uint32  // per dimension: one code per batch row
	values [][]float64 // per measure: one value per batch row
}

// EncodeBatch validates rows against base's schema (arity, finite measures,
// admissible dimension values) and encodes them against its dictionaries, growing them in batch row order
// — copy-on-write, so base and its siblings keep their own. Mapped snapshots
// reject appends.
func EncodeBatch(base *Snapshot, rows []Row) (*Batch, error) {
	if base.Mapped() {
		// Extending a mapped snapshot would have to materialize every column
		// it shares with the successor, defeating the open mode's purpose.
		return nil, fmt.Errorf("store: cannot append to memory-mapped snapshot %q; re-open it eagerly to ingest", base.Name)
	}
	for i, r := range rows {
		if len(r.Dims) != len(base.Dims) || len(r.Measures) != len(base.Measures) {
			return nil, fmt.Errorf("store: append row %d: arity mismatch: %d/%d dims, %d/%d measures",
				i, len(r.Dims), len(base.Dims), len(r.Measures), len(base.Measures))
		}
		for j, v := range r.Measures {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("store: append row %d measure %q: non-finite value %v",
					i, base.Measures[j].Name, v)
			}
		}
	}
	b := &Batch{
		n:      len(rows),
		dicts:  make([][]string, len(base.Dims)),
		codes:  make([][]uint32, len(base.Dims)),
		values: make([][]float64, len(base.Measures)),
	}
	for ci, c := range base.Dims {
		idx := make(map[string]uint32, len(c.Dict))
		for code, v := range c.Dict {
			idx[v] = uint32(code)
		}
		// The full slice expression pins capacity to length, so growth copies
		// instead of scribbling over a sibling version's backing array.
		dict := c.Dict[:len(c.Dict):len(c.Dict)]
		codes := make([]uint32, len(rows))
		for ri, r := range rows {
			v := r.Dims[ci]
			code, ok := idx[v]
			if !ok {
				if err := data.ValidDimValue(v); err != nil {
					return nil, fmt.Errorf("store: append row %d dimension %q: %w", ri, c.Name, err)
				}
				code = uint32(len(dict))
				dict = append(dict, v)
				idx[v] = code
			}
			codes[ri] = code
		}
		b.dicts[ci], b.codes[ci] = dict, codes
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
// validated (hierarchy functional dependencies included) and base is never
// mutated. An empty batch still moves the version and dictionaries along,
// sharing base's columns and cube; otherwise base's cube is maintained by
// merging a delta built over just the appended rows.
func (b *Batch) Extend(base *Snapshot) (*Snapshot, error) {
	next := &Snapshot{
		Name:        base.Name,
		Version:     base.Version + 1,
		Hierarchies: base.Hierarchies,
		Dims:        make([]Column, len(base.Dims)),
		Measures:    make([]MeasureColumn, len(base.Measures)),
		rows:        base.rows + b.n,
	}
	for ci, c := range base.Dims {
		codes := c.Codes
		if b.n > 0 {
			codes = append(c.Codes[:len(c.Codes):len(c.Codes)], b.codes[ci]...)
		}
		next.Dims[ci] = Column{Name: c.Name, Dict: b.dicts[ci], Codes: codes}
	}
	for mi, m := range base.Measures {
		vals := m.Values
		if b.n > 0 {
			vals = append(m.Values[:len(m.Values):len(m.Values)], b.values[mi]...)
		}
		next.Measures[mi] = MeasureColumn{Name: m.Name, Values: vals}
	}
	// The batch may introduce an inconsistency the per-row checks cannot see
	// (typically an FD violation against existing rows).
	if err := next.validate(); err != nil {
		return nil, err
	}
	if err := carryCube(base, next); err != nil {
		return nil, err
	}
	return next, nil
}

// carryCube maintains base's materialized cube across an append without
// rebuilding it: an untouched successor keeps the cube as-is (it still
// aggregates exactly its rows); otherwise a delta cube is built over just
// the appended rows and merged in (Stats.Add per shared cell, re-keying the
// base cells where new values grew the dictionaries). When the grown
// dictionaries push the successor outside what the cube subsystem
// materializes (e.g. the composite key space overflows), the successor
// simply carries no cube and serving falls back to row scans.
func carryCube(base, next *Snapshot) error {
	if base.cube == nil {
		return nil
	}
	if next.rows == base.rows {
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
