package store

import (
	"testing"
	"time"

	"repro/internal/data"
)

func TestParseEventTime(t *testing.T) {
	cases := []struct {
		in   string
		ok   bool
		want string
	}{
		{"1986", true, "1986-01-01T00:00:00Z"},
		{"1986-07", true, "1986-07-01T00:00:00Z"},
		{"1986-07-15", true, "1986-07-15T00:00:00Z"},
		{"1986-07-15 08:30:00", true, "1986-07-15T08:30:00Z"},
		{"1986-07-15T08:30:00Z", true, "1986-07-15T08:30:00Z"},
		{"Ofla", false, ""},
		{"", false, ""},
		{"19", false, ""},
	}
	for _, tc := range cases {
		got, ok := ParseEventTime(tc.in)
		if ok != tc.ok {
			t.Errorf("ParseEventTime(%q) ok = %v, want %v", tc.in, ok, tc.ok)
			continue
		}
		if ok && got.UTC().Format(time.RFC3339) != tc.want {
			t.Errorf("ParseEventTime(%q) = %s, want %s", tc.in, got.UTC().Format(time.RFC3339), tc.want)
		}
	}
}

// yearsWindow is a retention window spanning roughly n years of event time.
func yearsWindow(n int) time.Duration { return time.Duration(n) * 365 * 24 * time.Hour }

func TestRetainDropsOldestRows(t *testing.T) {
	snap := FromDataset(demoDataset()) // five 1986 rows, one 1987 row
	if err := snap.BuildCube(); err != nil {
		t.Fatal(err)
	}

	// A generous window keeps everything and returns the snapshot untouched.
	same, dropped, _, err := Retain(snap, "year", yearsWindow(10))
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 || same != snap {
		t.Fatalf("wide window dropped %d rows (same=%v)", dropped, same == snap)
	}

	// A window shorter than a year keeps only the newest year's rows.
	next, dropped, horizon, err := Retain(snap, "year", 30*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 5 {
		t.Fatalf("dropped = %d, want 5", dropped)
	}
	if next.Version != snap.Version+1 {
		t.Errorf("version = %d, want %d", next.Version, snap.Version+1)
	}
	if next.NumRows() != 1 {
		t.Fatalf("rows = %d, want 1", next.NumRows())
	}
	if horizon.IsZero() || !horizon.Before(mustTime(t, "1987")) {
		t.Errorf("horizon = %v", horizon)
	}
	ds, err := next.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.Dim("year"); got[0] != "1987" {
		t.Errorf("surviving year = %q, want 1987", got[0])
	}
	if got := ds.Dim("village"); got[0] != "Adishim" {
		t.Errorf("surviving village = %q", got[0])
	}
	// The base carried a cube, so the filtered snapshot rebuilt one.
	if next.Cube() == nil {
		t.Error("retention lost the materialized cube")
	}
	// The base snapshot is untouched.
	if snap.NumRows() != 6 {
		t.Errorf("base mutated: rows = %d", snap.NumRows())
	}
}

func TestRetainKeepsUnparsableValues(t *testing.T) {
	h := []data.Hierarchy{{Name: "time", Attrs: []string{"when"}}}
	d := data.New("feed", []string{"when"}, []string{"v"}, h)
	d.AppendRowVals([]string{"2020-01-01"}, []float64{1})
	d.AppendRowVals([]string{"unknown"}, []float64{2})
	d.AppendRowVals([]string{"2024-01-01"}, []float64{3})
	snap := FromDataset(d)
	next, dropped, _, err := Retain(snap, "when", yearsWindow(1))
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1 (only the 2020 row)", dropped)
	}
	ds, err := next.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.Dim("when"); len(got) != 2 || got[0] != "unknown" || got[1] != "2024-01-01" {
		t.Errorf("survivors = %v", got)
	}
}

func TestRetainHorizonIgnoresOrphanedDictValues(t *testing.T) {
	// After one pass drops the newest rows' predecessors, the dictionary
	// still lists the dropped values; a later horizon must anchor on rows,
	// not dictionary entries.
	h := []data.Hierarchy{{Name: "time", Attrs: []string{"year"}}}
	d := data.New("feed", []string{"year"}, []string{"v"}, h)
	for _, y := range []string{"2019", "2020", "2021"} {
		d.AppendRowVals([]string{y}, []float64{1})
	}
	snap := FromDataset(d)
	next, dropped, _, err := Retain(snap, "year", 400*24*time.Hour)
	if err != nil || dropped != 1 {
		t.Fatalf("first pass: dropped=%d err=%v", dropped, err)
	}
	// The 2019 value survives only in the shared dictionary. Max event time
	// must come from the remaining rows (2021), not re-resurrect 2019.
	max, ok, err := MaxEventTime(next, "year")
	if err != nil || !ok {
		t.Fatal(err)
	}
	if max != mustTime(t, "2021") {
		t.Errorf("max = %v, want 2021", max)
	}
}

func TestRetainErrors(t *testing.T) {
	snap := FromDataset(demoDataset())
	if _, _, _, err := Retain(snap, "nope", yearsWindow(1)); err == nil {
		t.Error("unknown dimension accepted")
	}
	// No parseable values at all: nothing to anchor a horizon on, keep all.
	h := []data.Hierarchy{{Name: "geo", Attrs: []string{"place"}}}
	d := data.New("words", []string{"place"}, []string{"v"}, h)
	d.AppendRowVals([]string{"here"}, []float64{1})
	s2 := FromDataset(d)
	same, dropped, horizon, err := Retain(s2, "place", yearsWindow(1))
	if err != nil || dropped != 0 || same != s2 || !horizon.IsZero() {
		t.Errorf("unparsable-only retention: dropped=%d horizon=%v err=%v", dropped, horizon, err)
	}
}

func mustTime(t *testing.T, v string) time.Time {
	t.Helper()
	tt, ok := ParseEventTime(v)
	if !ok {
		t.Fatalf("cannot parse %q", v)
	}
	return tt
}

// Retain is the one-snapshot pass the tests drive (serving goes through
// shard.Set.Retain): it computes the horizon (newest
// event on dim minus window) and drops the rows behind it. The returned
// horizon is the zero time when no row carries a parseable event time.
func Retain(s *Snapshot, dim string, window time.Duration) (*Snapshot, int, time.Time, error) {
	max, ok, err := MaxEventTime(s, dim)
	if err != nil {
		return nil, 0, time.Time{}, err
	}
	if !ok {
		return s, 0, time.Time{}, nil
	}
	horizon := max.Add(-window)
	next, dropped, err := RetainAfter(s, dim, horizon)
	if err != nil {
		return nil, 0, time.Time{}, err
	}
	return next, dropped, horizon, nil
}
