package store

import (
	"fmt"
	"time"
)

// Time-windowed retention: a continuously-fed dataset bounds its history by
// dropping rows whose event time (a designated time dimension) has fallen
// more than a window behind the newest event. The horizon is event-time
// based, not wall-clock based — a paused feed never loses data, and
// enforcement is deterministic for a given row set, so tests and replicas
// agree on exactly which rows survive.

// eventTimeLayouts are the value shapes a time dimension may use, coarsest
// last. Plain years ("1986") parse through the "2006" layout.
var eventTimeLayouts = []string{
	time.RFC3339,
	"2006-01-02 15:04:05",
	"2006-01-02",
	"2006-01",
	"2006",
}

// ParseEventTime parses one time-dimension value. Values that match none of
// the supported layouts (RFC 3339 down to a bare year) report ok=false;
// retention keeps such rows forever rather than guessing.
func ParseEventTime(v string) (t time.Time, ok bool) {
	for _, layout := range eventTimeLayouts {
		if t, err := time.Parse(layout, v); err == nil {
			return t, true
		}
	}
	return time.Time{}, false
}

// eventTimes parses a dictionary once into per-code event times. Codes whose
// value does not parse get ok=false.
func eventTimes(dict []string) ([]time.Time, []bool) {
	ts := make([]time.Time, len(dict))
	ok := make([]bool, len(dict))
	for i, v := range dict {
		ts[i], ok[i] = ParseEventTime(v)
	}
	return ts, ok
}

// MaxEventTime returns the newest parseable event time appearing in the
// snapshot's rows on dim. ok is false when no row carries a parseable value
// (retention then has no horizon and keeps everything).
func MaxEventTime(s *Snapshot, dim string) (max time.Time, ok bool, err error) {
	c := s.dim(dim)
	if c == nil {
		return time.Time{}, false, fmt.Errorf("store: retention dimension %q is not a dimension of %q", dim, s.Name)
	}
	if s.Mapped() {
		return time.Time{}, false, fmt.Errorf("store: cannot enforce retention on memory-mapped snapshot %q; re-open it eagerly", s.Name)
	}
	ts, tok := eventTimes(c.Dict)
	// Scan rows, not the dictionary: earlier retention passes may have left
	// dictionary values no surviving row uses, and those must not anchor the
	// horizon.
	for _, code := range c.Codes {
		if tok[code] && (!ok || ts[code].After(max)) {
			max, ok = ts[code], true
		}
	}
	return max, ok, nil
}

// RetainAfter drops every row on dim strictly older than horizon (rows with
// unparsable time values are kept) and returns the surviving rows as a new
// snapshot at Version+1 sharing the receiver's dictionaries. When no row is
// dropped it returns (s, 0, nil) — same version, no copy. The base
// snapshot's materialized cube, if any, is rebuilt over the survivors.
func RetainAfter(s *Snapshot, dim string, horizon time.Time) (*Snapshot, int, error) {
	c := s.dim(dim)
	if c == nil {
		return nil, 0, fmt.Errorf("store: retention dimension %q is not a dimension of %q", dim, s.Name)
	}
	if s.Mapped() {
		return nil, 0, fmt.Errorf("store: cannot enforce retention on memory-mapped snapshot %q; re-open it eagerly", s.Name)
	}
	ts, tok := eventTimes(c.Dict)
	keep := make([]int, 0, len(c.Codes))
	for row, code := range c.Codes {
		if !tok[code] || !ts[code].Before(horizon) {
			keep = append(keep, row)
		}
	}
	dropped := len(c.Codes) - len(keep)
	if dropped == 0 {
		return s, 0, nil
	}
	next, err := filterRows(s, keep, s.Version+1)
	if err != nil {
		return nil, 0, err
	}
	return next, dropped, nil
}

// WithVersion returns a snapshot sharing every column of s but stamped with
// the given version — the cheap way to move an untouched shard to its
// siblings' new version after retention dropped rows elsewhere. The cube
// carries over as-is: the rows are identical, and so is the claim on the
// columns' spare capacity (see Batch.grow).
func WithVersion(s *Snapshot, version uint64) *Snapshot {
	next := &Snapshot{
		Name:        s.Name,
		Version:     version,
		Hierarchies: s.Hierarchies,
		Dims:        s.Dims,
		Measures:    s.Measures,
		rows:        s.rows,
		claim:       s.claim,
	}
	if s.cube != nil {
		next.attachCube(s.cube)
	}
	return next
}

// filterRows materializes the kept rows into a fresh snapshot at version,
// sharing the receiver's dictionaries (codes stay valid — a dictionary is
// allowed to carry values no row uses). The cube, if present, is rebuilt:
// dropping rows cannot be delta-merged.
func filterRows(s *Snapshot, keep []int, version uint64) (*Snapshot, error) {
	dims := make([]Column, len(s.Dims))
	for ci, c := range s.Dims {
		codes := make([]uint32, len(keep))
		for i, row := range keep {
			codes[i] = c.Codes[row]
		}
		dims[ci] = Column{Name: c.Name, Dict: c.Dict, Codes: codes}
	}
	measures := make([]MeasureColumn, len(s.Measures))
	for mi, m := range s.Measures {
		vals := make([]float64, len(keep))
		for i, row := range keep {
			vals[i] = m.Values[row]
		}
		measures[mi] = MeasureColumn{Name: m.Name, Values: vals}
	}
	next, err := NewSnapshot(s.Name, version, s.Hierarchies, dims, measures, len(keep))
	if err != nil {
		return nil, fmt.Errorf("store: retention filter: %w", err)
	}
	if s.cube != nil {
		if err := next.BuildCube(); err != nil {
			return nil, fmt.Errorf("store: rebuilding cube after retention: %w", err)
		}
	}
	return next, nil
}
