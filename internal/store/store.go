// The package documentation, including the .rst binary layouts, lives in
// doc.go.
package store

import (
	"errors"
	"fmt"

	"repro/internal/cube"
	"repro/internal/data"
)

// Column is one dictionary-encoded dimension: Dict holds the distinct values
// in order of first appearance, Codes holds one index into Dict per row.
type Column struct {
	Name  string
	Dict  []string
	Codes []uint32
}

// MeasureColumn is one numeric measure column.
type MeasureColumn struct {
	Name   string
	Values []float64
}

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
	// OpenMappedFile: column payloads then live in the mapped file (Codes and
	// Values stay nil) and are decoded lazily through DimReader /
	// MeasureReader. dimOff/msOff are the payload byte offsets from the
	// file's directory.
	m      *mapping
	dimOff []int
	msOff  []int
	// ds memoizes Dataset(): snapshots are immutable, so the derived dataset
	// is built once and shared by every caller.
	ds *data.Dataset
	// cube is the snapshot's materialized rollup lattice, if one was built
	// (BuildCube), loaded from the .rst cube section, or maintained through
	// an append. It is attached to the derived dataset so agg.GroupBy and
	// the factorizer consult it transparently.
	cube *cube.Cube
}

// NumRows returns the snapshot's row count.
func (s *Snapshot) NumRows() int { return s.rows }

// FromDataset dictionary-encodes a dataset into a snapshot at dataset
// version 1.
// Dictionaries list values in order of first appearance, so encoding is
// deterministic for a given row order.
func FromDataset(ds *data.Dataset) *Snapshot {
	s := &Snapshot{
		Name:        ds.Name,
		Version:     1,
		Hierarchies: append([]data.Hierarchy(nil), ds.Hierarchies...),
		rows:        ds.NumRows(),
	}
	for _, name := range ds.DimNames() {
		s.Dims = append(s.Dims, encodeColumn(ds, name))
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

// encodeColumn dictionary-encodes one dimension, reusing the dataset's own
// encoding when it already carries one.
func encodeColumn(ds *data.Dataset, name string) Column {
	if dict, codes, ok := ds.DimCodes(name); ok {
		return Column{Name: name, Dict: dict, Codes: codes}
	}
	col := ds.Dim(name)
	idx := make(map[string]uint32)
	var dict []string
	codes := make([]uint32, len(col))
	for i, v := range col {
		c, ok := idx[v]
		if !ok {
			c = uint32(len(dict))
			idx[v] = c
			dict = append(dict, v)
		}
		codes[i] = c
	}
	return Column{Name: name, Dict: dict, Codes: codes}
}

// Dataset materializes the snapshot as a code-backed data.Dataset. The
// result is memoized and shared: callers must treat it as immutable, like
// every engine-owned dataset.
//
// An eager snapshot installs its dictionary encodings as slice columns
// (data.SetEncodedDim); a mapped one installs lazily-decoded column readers
// (data.SetDimCursor / SetMeasureCursor), so the dataset's row data stays in
// the file and consumers stream over the cursor seam.
func (s *Snapshot) Dataset() (*data.Dataset, error) {
	if s.ds != nil {
		return s.ds, nil
	}
	dimNames := make([]string, len(s.Dims))
	for i, c := range s.Dims {
		dimNames[i] = c.Name
	}
	msNames := make([]string, len(s.Measures))
	for i, m := range s.Measures {
		msNames[i] = m.Name
	}
	ds := data.New(s.Name, dimNames, msNames, append([]data.Hierarchy(nil), s.Hierarchies...))
	for i, c := range s.Dims {
		if c.Codes == nil && s.m != nil {
			if err := ds.SetDimCursor(c.Name, s.DimReader(i)); err != nil {
				return nil, err
			}
			continue
		}
		if len(c.Codes) != s.rows {
			return nil, fmt.Errorf("store: dimension %q has %d rows, snapshot has %d", c.Name, len(c.Codes), s.rows)
		}
		if err := ds.SetEncodedDim(c.Name, c.Dict, c.Codes); err != nil {
			return nil, err
		}
	}
	for i, m := range s.Measures {
		if m.Values == nil && s.m != nil {
			if err := ds.SetMeasureCursor(m.Name, s.MeasureReader(i)); err != nil {
				return nil, err
			}
			continue
		}
		if len(m.Values) != s.rows {
			return nil, fmt.Errorf("store: measure %q has %d rows, snapshot has %d", m.Name, len(m.Values), s.rows)
		}
		if err := ds.SetMeasure(m.Name, m.Values); err != nil {
			return nil, err
		}
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

// validate checks the snapshot's structural invariants (column lengths, code
// ranges, hierarchy attributes) and, via the derived dataset, the hierarchy
// functional dependencies. It is run on every Open and Append.
func (s *Snapshot) validate() error {
	for ci := range s.Dims {
		c := &s.Dims[ci]
		mapped := c.Codes == nil && s.m != nil
		if !mapped && len(c.Codes) != s.rows {
			return fmt.Errorf("store: dimension %q has %d rows, snapshot has %d", c.Name, len(c.Codes), s.rows)
		}
		// Dictionary values must be distinct: duplicates would make the coded
		// group-by split what the string semantics merge, so a checksum-valid
		// but hand-crafted file cannot smuggle the inconsistency in.
		seen := make(map[string]struct{}, len(c.Dict))
		for _, v := range c.Dict {
			if _, dup := seen[v]; dup {
				return fmt.Errorf("store: dimension %q: duplicate dictionary value %q", c.Name, v)
			}
			seen[v] = struct{}{}
		}
		if mapped {
			// One streaming pass over the mapped payload: O(rows) time,
			// O(1) heap — mapped open keeps the same corruption guarantees
			// as eager open.
			r := s.DimReader(ci)
			for i := 0; i < s.rows; i++ {
				if code := r.Code(i); int(code) >= len(c.Dict) {
					return fmt.Errorf("store: dimension %q row %d: code %d out of range (dictionary size %d)",
						c.Name, i, code, len(c.Dict))
				}
			}
			continue
		}
		for i, code := range c.Codes {
			if int(code) >= len(c.Dict) {
				return fmt.Errorf("store: dimension %q row %d: code %d out of range (dictionary size %d)",
					c.Name, i, code, len(c.Dict))
			}
		}
	}
	for mi := range s.Measures {
		m := &s.Measures[mi]
		if m.Values == nil && s.m != nil {
			continue // payload length is fixed by the offset directory
		}
		if len(m.Values) != s.rows {
			return fmt.Errorf("store: measure %q has %d rows, snapshot has %d", m.Name, len(m.Values), s.rows)
		}
	}
	if len(s.Hierarchies) == 0 {
		return nil // auxiliary tables carry no hierarchy metadata
	}
	ds, err := s.Dataset()
	if err != nil {
		return err
	}
	if err := ds.Validate(); err != nil {
		return fmt.Errorf("store: snapshot %q: %w", s.Name, err)
	}
	return nil
}
