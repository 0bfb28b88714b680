// The package documentation, including the .rst binary layouts, lives in
// doc.go.
package store

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/cube"
	"repro/internal/data"
)

// Column is one dictionary-encoded dimension: Dict holds the distinct values
// in order of first appearance, Codes holds one index into Dict per row.
type Column = data.DimColumn

// MeasureColumn is one numeric measure column.
type MeasureColumn = data.MeasureColumn

// Snapshot is one immutable version of a dataset in columnar form. Appending
// rows (Builder.Append) produces a new Snapshot with Version+1; the base
// snapshot and all datasets derived from it stay valid.
type Snapshot struct {
	Name        string
	Version     uint64
	Hierarchies []data.Hierarchy
	Dims        []Column
	Measures    []MeasureColumn

	rows int
	// m is the backing file mapping when the snapshot was opened with
	// OpenMappedFile: Codes and Values are then typed views over the mapped
	// file (see view), valid until Close.
	m *mapping
	// ds memoizes Dataset(): snapshots are immutable, so the derived dataset
	// is built once and shared by every caller.
	ds *data.Dataset
	// claim is shared by the snapshots whose columns grew in place from one
	// another's backing arrays: the row count of the one that may append past
	// its rows into their spare capacity (see Batch.grow). nil for columns the
	// store does not own.
	claim *atomic.Int64
	// cube is the snapshot's materialized rollup lattice, if one was built
	// (BuildCube), loaded from the .rst cube section, or maintained through
	// an append. It is attached to the derived dataset so agg.GroupBy and
	// the factorizer consult it transparently.
	cube *cube.Cube
}

// NumRows returns the snapshot's row count.
func (s *Snapshot) NumRows() int { return s.rows }

// FromDataset wraps a dataset's columns as a snapshot at dataset version 1,
// sharing its dictionaries and codes. Datasets built from rows or CSV list
// dictionary values in order of first appearance, so the encoding is
// deterministic for a given row order.
func FromDataset(ds *data.Dataset) *Snapshot {
	s := &Snapshot{
		Name:        ds.Name,
		Version:     1,
		Hierarchies: append([]data.Hierarchy(nil), ds.Hierarchies...),
		rows:        ds.NumRows(),
	}
	for _, name := range ds.DimNames() {
		dict, codes := ds.DimCodes(name)
		s.Dims = append(s.Dims, Column{Name: name, Dict: dict, Codes: codes})
	}
	for _, name := range ds.MeasureNames() {
		s.Measures = append(s.Measures, MeasureColumn{
			Name:   name,
			Values: append([]float64(nil), ds.Measure(name)...),
		})
	}
	return s
}

// NewSnapshot assembles a snapshot from already-encoded columns and validates
// it (column lengths, code ranges, hierarchy functional dependencies). It is
// the constructor internal/shard uses to partition a snapshot into shards
// that share its dictionaries; the caller keeps ownership conventions —
// columns must not be mutated afterwards.
func NewSnapshot(name string, version uint64, hierarchies []data.Hierarchy, dims []Column, measures []MeasureColumn, rows int) (*Snapshot, error) {
	s := &Snapshot{
		Name:        name,
		Version:     version,
		Hierarchies: hierarchies,
		Dims:        dims,
		Measures:    measures,
		rows:        rows,
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dataset returns the snapshot as a data.Dataset sharing its columns. The
// result is memoized and shared: callers must treat it as immutable, like
// every engine-owned dataset. A mapped snapshot's dataset reads the file
// mapping and dies with it (Close).
func (s *Snapshot) Dataset() (*data.Dataset, error) {
	if s.ds != nil {
		return s.ds, nil
	}
	ds, err := data.FromColumns(s.Name, s.Dims, s.Measures, append([]data.Hierarchy(nil), s.Hierarchies...))
	if err != nil {
		return nil, fmt.Errorf("store: snapshot %q: %w", s.Name, err)
	}
	if s.cube != nil {
		ds.SetRollup(s.cube)
	}
	s.ds = ds
	return ds, nil
}

// Cube returns the snapshot's materialized rollup lattice, or nil.
func (s *Snapshot) Cube() *cube.Cube { return s.cube }

// BuildCube materializes the snapshot's rollup lattice and attaches it to
// the derived dataset, so group-bys over hierarchy prefixes are answered
// from precomputed cells. It is a no-op when a cube is already present, and
// silently skips datasets the cube subsystem declines (no hierarchies, key
// space too wide): callers check Cube() for presence and serving falls back
// to row scans.
func (s *Snapshot) BuildCube() error {
	if s.cube != nil || len(s.Hierarchies) == 0 {
		return nil
	}
	ds, err := s.Dataset()
	if err != nil {
		return err
	}
	c, err := cube.Build(ds)
	if errors.Is(err, cube.ErrNotCubable) {
		return nil
	}
	if err != nil {
		return err
	}
	s.attachCube(c)
	return nil
}

// attachCube installs a cube on the snapshot and on the already-derived
// dataset, if any. Snapshots are shared immutably once published, so callers
// attach before handing the snapshot to concurrent readers.
func (s *Snapshot) attachCube(c *cube.Cube) {
	s.cube = c
	if s.ds != nil {
		s.ds.SetRollup(c)
	}
}

// dim returns the column with the given name, or nil.
func (s *Snapshot) dim(name string) *Column {
	for i := range s.Dims {
		if s.Dims[i].Name == name {
			return &s.Dims[i]
		}
	}
	return nil
}

// validate checks the snapshot's invariants once each: its columns
// (checkColumns), then its hierarchies and their FDs (validateShards). An
// append checks only its batch (validateAppend). Over a mapped snapshot every
// pass streams through the mapping with O(dictionary) heap.
func (s *Snapshot) validate() error {
	if err := s.checkColumns(); err != nil {
		return err
	}
	return validateShards([]*Snapshot{s})
}

// checkColumns checks column lengths and dictionary contents here, and code
// ranges through the derived dataset, which it leaves memoized.
func (s *Snapshot) checkColumns() error {
	for ci := range s.Dims {
		c := &s.Dims[ci]
		if len(c.Codes) != s.rows {
			return fmt.Errorf("store: dimension %q has %d rows, snapshot has %d", c.Name, len(c.Codes), s.rows)
		}
		// Dictionary values must be distinct: duplicates would split what the
		// value semantics merge, so a checksum-valid but hand-crafted file
		// cannot smuggle the inconsistency in. Likewise the group-key
		// separator, which would merge what the value semantics split.
		seen := make(map[string]struct{}, len(c.Dict))
		for _, v := range c.Dict {
			if _, dup := seen[v]; dup {
				return fmt.Errorf("store: dimension %q: duplicate dictionary value %q", c.Name, v)
			}
			if err := data.ValidDimValue(v); err != nil {
				return fmt.Errorf("store: dimension %q: %w", c.Name, err)
			}
			seen[v] = struct{}{}
		}
	}
	for mi := range s.Measures {
		m := &s.Measures[mi]
		if len(m.Values) != s.rows {
			return fmt.Errorf("store: measure %q has %d rows, snapshot has %d", m.Name, len(m.Values), s.rows)
		}
	}
	_, err := s.Dataset() // data.FromColumns checks every code against its dictionary
	return err
}

// validateShards checks the hierarchies of shards that passed checkColumns
// and share their dictionaries, and every hierarchy FD over the union of their
// rows, in one pass over each shard's columns (data.ValidateShards). Each
// shard's dataset remembers the FDs, for an engine over it and for the row
// scan's keys.
func validateShards(shards []*Snapshot) error {
	ds := make([]*data.Dataset, len(shards))
	for i, s := range shards {
		ds[i] = s.ds
	}
	if err := data.ValidateShards(ds); err != nil {
		return fmt.Errorf("store: snapshot %q: %w", shards[0].Name, err)
	}
	return nil
}
