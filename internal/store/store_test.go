package store

import (
	"bytes"
	"hash/crc32"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/data"
)

func crcOf(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// demoDataset builds the paper's running example: a geo hierarchy
// (district → village) and a year hierarchy over a severity measure.
func demoDataset() *data.Dataset {
	h := []data.Hierarchy{
		{Name: "geo", Attrs: []string{"district", "village"}},
		{Name: "time", Attrs: []string{"year"}},
	}
	d := data.New("drought", []string{"district", "village", "year"}, []string{"severity"}, h)
	rows := []struct {
		dist, vil, yr string
		sev           float64
	}{
		{"Ofla", "Adishim", "1986", 8},
		{"Ofla", "Adishim", "1986", 9},
		{"Ofla", "Darube", "1986", 2},
		{"Ofla", "Zata", "1986", 1},
		{"Ofla", "Adishim", "1987", 7},
		{"Raya", "Kukufto", "1986", 6},
	}
	for _, r := range rows {
		d.AppendRowVals([]string{r.dist, r.vil, r.yr}, []float64{r.sev})
	}
	return d
}

// assertDatasetsEqual compares every column of two datasets value by value.
func assertDatasetsEqual(t *testing.T, got, want *data.Dataset) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("rows = %d, want %d", got.NumRows(), want.NumRows())
	}
	if !reflect.DeepEqual(got.DimNames(), want.DimNames()) {
		t.Fatalf("dims = %v, want %v", got.DimNames(), want.DimNames())
	}
	if !reflect.DeepEqual(got.MeasureNames(), want.MeasureNames()) {
		t.Fatalf("measures = %v, want %v", got.MeasureNames(), want.MeasureNames())
	}
	if !reflect.DeepEqual(got.Hierarchies, want.Hierarchies) {
		t.Fatalf("hierarchies = %+v, want %+v", got.Hierarchies, want.Hierarchies)
	}
	for _, c := range want.DimNames() {
		if !reflect.DeepEqual(got.Dim(c), want.Dim(c)) {
			t.Errorf("dimension %q differs:\n got %v\nwant %v", c, got.Dim(c), want.Dim(c))
		}
	}
	for _, c := range want.MeasureNames() {
		if !reflect.DeepEqual(got.Measure(c), want.Measure(c)) {
			t.Errorf("measure %q differs:\n got %v\nwant %v", c, got.Measure(c), want.Measure(c))
		}
	}
}

func TestFromDatasetRoundTrip(t *testing.T) {
	ds := demoDataset()
	snap := FromDataset(ds)
	if snap.Version != 1 || snap.NumRows() != ds.NumRows() {
		t.Fatalf("version %d rows %d", snap.Version, snap.NumRows())
	}
	back, err := snap.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	assertDatasetsEqual(t, back, ds)
	// The round-tripped dataset shares the snapshot's columns.
	for i, c := range back.DimNames() {
		if _, codes := back.DimCodes(c); len(codes) > 0 && &codes[0] != &snap.Dims[i].Codes[0] {
			t.Errorf("dimension %q was copied on the way back", c)
		}
	}
}

func TestWriteOpenRoundTrip(t *testing.T) {
	ds := demoDataset()
	snap := FromDataset(ds)
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Open(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "drought" || got.Version != 1 || got.NumRows() != 6 {
		t.Fatalf("decoded header: name=%q version=%d rows=%d", got.Name, got.Version, got.NumRows())
	}
	back, err := got.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	assertDatasetsEqual(t, back, ds)
}

func TestWriteFileOpenFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "drought.rst")
	snap := FromDataset(demoDataset())
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := got.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	assertDatasetsEqual(t, back, demoDataset())
}

func TestOpenRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := FromDataset(demoDataset()).Write(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("bit flip", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(bad)/2] ^= 0x40
		if _, err := Open(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("err = %v, want checksum mismatch", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := Open(bytes.NewReader(good[:len(good)-9])); err == nil {
			t.Fatal("expected error for truncated snapshot")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte("NOTASNAP"), good[8:]...)
		if _, err := Open(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "checksum") {
			// The checksum catches the damage before the magic check runs.
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := Open(bytes.NewReader(nil)); err == nil {
			t.Fatal("expected error for empty input")
		}
	})
}

func TestOpenRejectsFutureFormatVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := FromDataset(demoDataset()).Write(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[7] = FormatVersion + 1
	// Re-seal the checksum so the version check (not the checksum) fires.
	reseal(b)
	if _, err := Open(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "format version") {
		t.Fatalf("err = %v, want format version error", err)
	}
}

func TestOpenRejectsDuplicateDictValues(t *testing.T) {
	// A duplicate dictionary value would make the coded group-by split what
	// the string semantics merge; a checksum-valid file must not smuggle it.
	snap := FromDataset(demoDataset())
	snap.Dims[0].Dict[1] = snap.Dims[0].Dict[0]
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bytes.NewReader(buf.Bytes())); err == nil || !strings.Contains(err.Error(), "duplicate dictionary value") {
		t.Fatalf("err = %v, want duplicate dictionary value", err)
	}
}

// TestKeySeparatorRejected: a dimension value containing the group-key
// separator would let ("a\x1fb","c") and ("a","b\x1fc") share one group key,
// so neither an append batch nor a (checksum-valid) file may bring one in.
func TestKeySeparatorRejected(t *testing.T) {
	b := NewBuilder(FromDataset(demoDataset()))
	before := b.Snapshot()
	_, err := b.Append([]Row{
		{Dims: []string{"Ofla", "Adishim", "1986"}, Measures: []float64{1}},
		{Dims: []string{"Ofla", "Adi\x1fshim", "1986"}, Measures: []float64{1}},
	})
	if err == nil || !strings.Contains(err.Error(), "row 2 ") || !strings.Contains(err.Error(), `"village"`) {
		t.Fatalf("append err = %v, want a row 2 / village rejection (rows number from 1)", err)
	}
	if b.Snapshot() != before {
		t.Error("rejected append advanced the builder")
	}

	snap := FromDataset(demoDataset())
	snap.Dims[1].Dict = append([]string(nil), snap.Dims[1].Dict...)
	snap.Dims[1].Dict[0] = "Adi\x1fshim"
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bytes.NewReader(buf.Bytes())); err == nil || !strings.Contains(err.Error(), "separator") {
		t.Fatalf("open err = %v, want a separator rejection", err)
	}
}

func TestOpenValidatesHierarchies(t *testing.T) {
	// Hand-build a snapshot whose hierarchy references a missing attribute.
	snap := FromDataset(demoDataset())
	snap.Hierarchies = append(snap.Hierarchies, data.Hierarchy{Name: "bogus", Attrs: []string{"nope"}})
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bytes.NewReader(buf.Bytes())); err == nil || !strings.Contains(err.Error(), "unknown attribute") {
		t.Fatalf("err = %v, want unknown attribute", err)
	}
}

func TestBuilderAppend(t *testing.T) {
	base := FromDataset(demoDataset())
	baseDS, err := base.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	baseRows := base.NumRows()
	b := NewBuilder(base)
	next, err := b.Append([]Row{
		{Dims: []string{"Raya", "Mehoni", "1987"}, Measures: []float64{5.5}}, // new village
		{Dims: []string{"Ofla", "Zata", "1986"}, Measures: []float64{3}},     // existing values
	})
	if err != nil {
		t.Fatal(err)
	}
	if next.Version != base.Version+1 {
		t.Errorf("version = %d, want %d", next.Version, base.Version+1)
	}
	if next.NumRows() != baseRows+2 {
		t.Errorf("rows = %d, want %d", next.NumRows(), baseRows+2)
	}
	// Base snapshot and its dataset are untouched.
	if base.NumRows() != baseRows || baseDS.NumRows() != baseRows {
		t.Fatalf("append mutated the base snapshot")
	}
	if got := base.dim("village").Dict; len(got) != 4 {
		t.Errorf("base village dict grew: %v", got)
	}
	nds, err := next.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if got := nds.Dim("village")[baseRows]; got != "Mehoni" {
		t.Errorf("appended village = %q", got)
	}
	if got := nds.Measure("severity")[baseRows+1]; got != 3 {
		t.Errorf("appended severity = %v", got)
	}
	// The new value extended the dictionary.
	dict, _ := nds.DimCodes("village")
	if dict[len(dict)-1] != "Mehoni" {
		t.Errorf("village dict = %v, want Mehoni last", dict)
	}

	// Appending again builds on the new version.
	third, err := b.Append([]Row{{Dims: []string{"Raya", "Mehoni", "1987"}, Measures: []float64{6}}})
	if err != nil {
		t.Fatal(err)
	}
	if third.Version != 3 || third.NumRows() != baseRows+3 {
		t.Errorf("third version %d rows %d", third.Version, third.NumRows())
	}
}

func TestBuilderAppendRejectsBadRows(t *testing.T) {
	b := NewBuilder(FromDataset(demoDataset()))
	if _, err := b.Append([]Row{{Dims: []string{"Ofla"}, Measures: []float64{1}}}); err == nil {
		t.Error("expected arity error")
	}
	if _, err := b.Append([]Row{{Dims: []string{"Ofla", "Adishim", "1986"}, Measures: []float64{0}}}); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	// Zata already belongs to Ofla: claiming it for Raya violates the
	// village → district FD and must leave the lineage unchanged.
	before := b.Snapshot()
	if _, err := b.Append([]Row{{Dims: []string{"Raya", "Zata", "1986"}, Measures: []float64{1}}}); err == nil || !strings.Contains(err.Error(), "FD violation") {
		t.Fatalf("err = %v, want FD violation", err)
	}
	if b.Snapshot() != before {
		t.Error("failed append advanced the builder")
	}
	if _, err := b.Append([]Row{{Dims: []string{"Ofla", "Adishim", "1986"}, Measures: []float64{1}}}); err != nil {
		t.Errorf("append after failed batch: %v", err)
	}
}

func TestBuilderAppendVersionedWriteRoundTrip(t *testing.T) {
	b := NewBuilder(FromDataset(demoDataset()))
	next, err := b.Append([]Row{{Dims: []string{"Raya", "Bala", "1988"}, Measures: []float64{4}}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := next.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Open(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 2 {
		t.Errorf("persisted version = %d, want 2", got.Version)
	}
	wantDS, err := next.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	gotDS, err := got.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	assertDatasetsEqual(t, gotDS, wantDS)
}

// reseal recomputes the trailing checksum after a deliberate payload edit.
func reseal(b []byte) {
	sum := crcOf(b[:len(b)-4])
	b[len(b)-4] = byte(sum)
	b[len(b)-3] = byte(sum >> 8)
	b[len(b)-2] = byte(sum >> 16)
	b[len(b)-1] = byte(sum >> 24)
}
