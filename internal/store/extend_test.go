package store

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/data"
)

// TestExtendShardAloneChecksItsOwnRows: the shards of a partitioned file
// share one FD table over the union of their rows, so a shard extended on its
// own checks its batch against its own rows, not that table: a city its
// sibling files under another region is new to it. Extended together, the
// shards refuse the same row.
func TestExtendShardAloneChecksItsOwnRows(t *testing.T) {
	h := []data.Hierarchy{{Name: "geo", Attrs: []string{"region", "city"}}}
	ds := data.New("split", []string{"region", "city"}, []string{"m"}, h)
	ds.AppendRowVals([]string{"north", "oslo"}, []float64{1})
	ds.AppendRowVals([]string{"south", "rome"}, []float64{2})
	var buf bytes.Buffer
	if err := WriteSharded(&buf, "region", shardsOf(t, ds, []int{0}, []int{1})); err != nil {
		t.Fatal(err)
	}
	_, shards, err := openShards(buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := []Row{{Dims: []string{"north", "rome"}, Measures: []float64{3}}}
	batch, err := EncodeBatch(shards[0], rows)
	if err != nil {
		t.Fatal(err)
	}
	next, err := batch.Extend(shards[0])
	if err != nil {
		t.Fatalf("shard 0 alone: %v", err)
	}
	if got, _ := next.Dataset(); got.NumRows() != 2 || got.Dim("city")[1] != "rome" {
		t.Fatalf("shard 0 alone holds %v", got.Dim("city"))
	}
	if _, err := ExtendShards(shards, []*Batch{batch, batch.Pick(nil)}); err == nil || !strings.Contains(err.Error(), `city="rome"`) {
		t.Fatalf("both shards: err = %v, want an FD violation on rome", err)
	}
}

// TestBranchesKeepTheirOwnFDTables: two successors of one base each file a
// village under a different district. The base's dictionary holds the village
// but no row of it (a shard that took none of the batch that brought it in),
// so the first row of it is a new entry in the base's FD table, which each
// successor adds to its own copy: both are accepted, and each then refuses
// the other's parent for the village.
func TestBranchesKeepTheirOwnFDTables(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := newLineageModel([]string{"units", "cost"})
	m.add(lineageRows(rng, 300, 0, 40, 0, 12, 2, 2))
	row := func(district string) Row {
		return Row{Dims: []string{"r0", district, "new-v", "2015", "2015-01", "k0"}, Measures: []float64{1, 2}}
	}
	first := extendRows(t, m.snapshot(t), lineageRows(rng, 20, 0, 40, 0, 12, 2, 2))
	grown, err := EncodeBatch(first, []Row{row("r0-d0")})
	if err != nil {
		t.Fatal(err)
	}
	base, err := grown.Pick(nil).Extend(first)
	if err != nil {
		t.Fatal(err)
	}
	a := extendRows(t, base, []Row{row("r0-d0")})
	b := extendRows(t, base, []Row{row("r0-d1")})
	for _, tc := range []struct {
		s        *Snapshot
		district string
	}{{a, "r0-d1"}, {b, "r0-d0"}} {
		batch, err := EncodeBatch(tc.s, []Row{row(tc.district)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := batch.Extend(tc.s); err == nil || !strings.Contains(err.Error(), `village="new-v"`) {
			t.Errorf("new-v under %s: err = %v, want an FD violation", tc.district, err)
		}
	}
}

// TestEncodeBatchClonesNewValues: a value a batch adds to a dictionary is a
// copy, so the dictionary does not pin the larger string (a CSV record, a
// request body) the row's value was sliced from.
func TestEncodeBatchClonesNewValues(t *testing.T) {
	ds := data.New("clone", []string{"city"}, []string{"m"}, nil)
	ds.AppendRowVals([]string{"oslo"}, []float64{1})
	base := FromDataset(ds)
	record := "rome,2,and the rest of a long record"
	city := record[:strings.IndexByte(record, ',')]
	batch, err := EncodeBatch(base, []Row{{Dims: []string{city}, Measures: []float64{2}}})
	if err != nil {
		t.Fatal(err)
	}
	next, err := batch.Extend(base)
	if err != nil {
		t.Fatal(err)
	}
	dict := next.Dims[0].Dict
	if len(dict) != 2 || dict[1] != "rome" {
		t.Fatalf("dictionary %q, want [oslo rome]", dict)
	}
	if unsafe.StringData(dict[1]) == unsafe.StringData(city) {
		t.Error("the dictionary's new value shares memory with the row value it came from")
	}
}
