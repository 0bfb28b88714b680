package store

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/data"
)

// version2Fixtures are files a version-2 writer produced from the quickstart
// survey: plain with its cube, and partitioned on district into 2 shards.
var version2Fixtures = []struct {
	path   string
	shards int
	cubed  bool
}{
	{"testdata/quickstart_v2_cube.rst", 1, true},
	{"testdata/quickstart_v2_shards2.rst", 2, false},
}

// TestVersion2Fixtures opens each version-2 fixture eager and mapped. Every
// lattice GroupBy of every shard — through the fixture's cube where it has
// one — is bit-identical to cube.Build and to the row scan over the shard's
// rows, and a recommendation over the file is byte-identical to the one an
// engine over the CSV-loaded survey makes.
func TestVersion2Fixtures(t *testing.T) {
	complaint := core.Complaint{Agg: agg.Std, Measure: "severity", Tuple: data.Predicate{"district": "Ofla", "year": "1986"}, Direction: core.TooHigh}
	opts := core.Options{EMIterations: 4, Workers: 1}
	recommend := func(eng *core.Engine, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		sess, err := eng.NewSession([]string{"district", "year"})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := sess.Recommend(complaint)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	survey := quickstartDataset()
	var csvBuf bytes.Buffer
	if err := survey.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	fromCSV, err := data.ReadCSV(&csvBuf, survey.Name, survey.MeasureNames(), survey.Hierarchies)
	if err != nil {
		t.Fatal(err)
	}
	want := recommend(core.NewEngine(fromCSV, opts))

	for _, fx := range version2Fixtures {
		for _, mapped := range []bool{false, true} {
			_, shards, err := OpenShardsFile(fx.path, mapped)
			if err != nil {
				t.Fatalf("%s (mapped=%v): %v", fx.path, mapped, err)
			}
			if len(shards) != fx.shards {
				t.Fatalf("%s (mapped=%v): %d shards, want %d", fx.path, mapped, len(shards), fx.shards)
			}
			rows := 0
			workers := make([]core.ShardWorker, len(shards))
			var schema *data.Dataset
			for si, s := range shards {
				rows += s.NumRows()
				if (s.Cube() != nil) != fx.cubed || s.Mapped() != mapped {
					t.Fatalf("%s (mapped=%v) shard %d: cube %v, mapped %v", fx.path, mapped, si, s.Cube() != nil, s.Mapped())
				}
				ds, err := s.Dataset()
				if err != nil {
					t.Fatal(err)
				}
				if si == 0 {
					schema = ds
				}
				workers[si] = core.LocalShard(ds)
				// The same rows with no cube attached: agg.GroupBy scans them.
				scan, err := data.FromColumns(s.Name, s.Dims, s.Measures, append([]data.Hierarchy(nil), s.Hierarchies...))
				if err != nil {
					t.Fatal(err)
				}
				built, err := cube.Build(scan)
				if err != nil {
					t.Fatal(err)
				}
				for _, attrs := range latticeGroupings(ds.Hierarchies) {
					for _, m := range ds.MeasureNames() {
						got := agg.GroupBy(ds, attrs, m)
						// The cube serves every grouping but the empty one.
						w, ok := built.GroupBy(attrs, m)
						if ok != (len(attrs) > 0) || (ok && !sameBits(got, w)) || !sameBits(got, agg.GroupBy(scan, attrs, m)) {
							t.Errorf("%s (mapped=%v) shard %d: GroupBy(%v, %s) differs from cube.Build or the row scan", fx.path, mapped, si, attrs, m)
						}
					}
				}
			}
			if rows != survey.NumRows() {
				t.Errorf("%s (mapped=%v): %d rows, the survey has %d", fx.path, mapped, rows, survey.NumRows())
			}
			var got []byte
			if len(shards) == 1 {
				got = recommend(core.NewEngine(schema, opts))
			} else {
				got = recommend(core.NewShardedEngine(schema, workers, opts))
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s (mapped=%v): recommendation differs from the CSV-built engine's:\n%.400s\n%.400s", fx.path, mapped, got, want)
			}
			for _, s := range shards {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}
