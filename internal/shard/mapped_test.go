package shard

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/store"
)

// TestOpenMappedSetMatchesEager writes a partitioned snapshot and reopens it
// both ways, asserting the mapped set serves the same topology and the same
// per-shard rows as the eager one.
func TestOpenMappedSetMatchesEager(t *testing.T) {
	set := mustPartition(t, testDataset(), 4, "")
	path := filepath.Join(t.TempDir(), "cities.rst")
	if err := set.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	eager, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if mapped.Key != eager.Key || mapped.N() != eager.N() || mapped.Version() != eager.Version() {
		t.Fatalf("mapped set (%q, %d shards, v%d), eager (%q, %d, v%d)",
			mapped.Key, mapped.N(), mapped.Version(), eager.Key, eager.N(), eager.Version())
	}
	if !reflect.DeepEqual(mapped.Rows(), eager.Rows()) {
		t.Fatalf("mapped rows %v, eager %v", mapped.Rows(), eager.Rows())
	}
	for si := range mapped.Snaps {
		if !mapped.Snaps[si].Mapped() {
			t.Fatalf("shard %d did not open mapped", si)
		}
		mds, err := mapped.Snaps[si].Dataset()
		if err != nil {
			t.Fatal(err)
		}
		eds, err := eager.Snaps[si].Dataset()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range eds.DimNames() {
			if !reflect.DeepEqual(mds.Dim(c), eds.Dim(c)) {
				t.Fatalf("shard %d dimension %q differs between open modes", si, c)
			}
		}
		for _, c := range eds.MeasureNames() {
			if !reflect.DeepEqual(mds.Measure(c), eds.Measure(c)) {
				t.Fatalf("shard %d measure %q differs between open modes", si, c)
			}
		}
	}
	if err := mapped.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mapped.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestMappedSetRejectsMutation pins the guards that keep the flat-residency
// promise honest: a mapped set cannot absorb appends, and a mapped snapshot
// cannot be re-partitioned.
func TestMappedSetRejectsMutation(t *testing.T) {
	set := mustPartition(t, testDataset(), 2, "")
	path := filepath.Join(t.TempDir(), "cities.rst")
	if err := set.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	_, err = mapped.Append([]store.Row{{Dims: []string{"north", "oslo", "2022"}, Measures: []float64{1, 1}}})
	if err == nil || !strings.Contains(err.Error(), "re-open it eagerly") {
		t.Errorf("append to mapped set: err = %v, want re-open hint", err)
	}
	if _, err := Partition(mapped.Snaps[0], 2, ""); err == nil || !strings.Contains(err.Error(), "re-open it eagerly") {
		t.Errorf("partition of mapped snapshot: err = %v, want re-open hint", err)
	}
}
