package shard_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/shard"
	"repro/internal/store"
)

// referenceChildren is the obviously-right σ: the drilled relation's value
// tuples (string-keyed, from the rows) that match every tuple attribute.
func referenceChildren(d *data.Dataset, attrs []string, tuple data.Predicate) []string {
	seen := map[string]bool{}
	d.ForEachMatch(tuple, func(row int) { seen[d.RowKey(row, attrs)] = true })
	return slices.Sorted(maps.Keys(seen))
}

// referenceEmptySiblings is the obviously-right ∖, by row scan over strings:
// the values attr takes among rows matching the tuple's attributes of the
// drilled hierarchy h, less the values it takes among the tuple's own rows.
func referenceEmptySiblings(d *data.Dataset, h data.Hierarchy, attr string, tuple data.Predicate) []string {
	anc := data.Predicate{}
	for _, a := range h.Attrs {
		if v, ok := tuple[a]; ok {
			anc[a] = v
		}
	}
	col := d.Dim(attr)
	seen := map[string]bool{}
	d.ForEachMatch(anc, func(row int) { seen[col[row]] = true })
	d.ForEachMatch(tuple, func(row int) { delete(seen, col[row]) })
	return slices.Sorted(maps.Keys(seen))
}

// randomSurvey generates rows over geo: a → b → v and time: c that satisfy the
// hierarchy dependencies (a child's value extends its parent's), with
// dictionaries whose code order is not their sorted order, prefix pairs and
// multi-byte values, cells sparse enough that leaf-level drill-downs have
// empty siblings, and integer measures so that every merge order adds exactly.
// The rows of one a value come last, from nbase on: the append case's batch.
func randomSurvey(rng *rand.Rand) (names []string, hs []data.Hierarchy, rows []store.Row, nbase int) {
	names = []string{"a", "b", "v", "c"}
	hs = []data.Hierarchy{{Name: "geo", Attrs: []string{"a", "b", "v"}}, {Name: "time", Attrs: []string{"c"}}}
	values := []string{"b", "ab", "a", "é", "aé", "zz", "z", "日本", "日"}
	rng.Shuffle(len(values), func(i, j int) { values[i], values[j] = values[j], values[i] })
	as := values[:3+rng.Intn(3)]
	var tail []store.Row
	for i, n := 0, 60+rng.Intn(120); i < n; i++ {
		a := as[rng.Intn(len(as))]
		b := a + "/" + values[rng.Intn(3)]
		v := b + "/" + values[rng.Intn(4)]
		r := store.Row{Dims: []string{a, b, v, values[rng.Intn(5)]}, Measures: []float64{float64(rng.Intn(9))}}
		if a == as[len(as)-1] {
			tail = append(tail, r)
		} else {
			rows = append(rows, r)
		}
	}
	return names, hs, append(rows, tail...), len(rows)
}

// TestSourcesAgreeWithRowScanReference holds every physical source of the
// drilled relation — row scan, cube, shard.Partition into 2 and 3 shards with
// and without cubes, and a Set.Append successor whose batch grows the
// dictionaries while leaving every shard but one (and its cube's dictionaries)
// untouched — to one string-keyed row-scan reference: the gathered group-by is
// Result.Equal to the unsharded agg.GroupBy, a recommendation's observed groups
// are the reference children and its zero-count groups the reference empty
// siblings, and the whole recommendation is byte-identical to the row scan's.
// It runs under the default trainer and again under TrainerFactorised, where
// every recommendation also builds each hierarchy's factor source from its
// source's paths.
func TestSourcesAgreeWithRowScanReference(t *testing.T) {
	for _, trainer := range []struct {
		name string
		kind core.TrainerKind
	}{{"auto", core.TrainerAuto}, {"factorised", core.TrainerFactorised}} {
		t.Run(trainer.name, func(t *testing.T) { checkSourcesAgree(t, trainer.kind) })
	}
}

func checkSourcesAgree(t *testing.T, trainer core.TrainerKind) {
	rng := rand.New(rand.NewSource(21))
	opts := core.Options{EMIterations: 2, Workers: 2, Trainer: trainer}
	for round := 0; round < 6; round++ {
		names, hs, rows, nbase := randomSurvey(rng)
		full := data.New("survey", names, []string{"m"}, hs)
		base := data.New("survey", names, []string{"m"}, hs)
		for i, r := range rows {
			full.AppendRowVals(r.Dims, r.Measures)
			if i < nbase {
				base.AppendRowVals(r.Dims, r.Measures)
			}
		}

		type source struct {
			name string
			eng  *core.Engine
		}
		scan, err := core.NewEngine(full, opts)
		if err != nil {
			t.Fatal(err)
		}
		sources := []source{{"scan", scan}}
		add := func(name string, set *shard.Set) {
			t.Helper()
			eng, err := set.Engine(opts)
			if err != nil {
				t.Fatalf("round %d %s: %v", round, name, err)
			}
			sources = append(sources, source{name, eng})
		}
		cubed := shard.Single(store.FromDataset(full))
		if err := cubed.BuildCubes(); err != nil {
			t.Fatal(err)
		}
		add("cube", cubed)
		for _, n := range []int{2, 3} {
			for _, cubes := range []bool{false, true} {
				set, err := shard.Partition(store.FromDataset(full), n, "")
				if err != nil {
					t.Fatal(err)
				}
				grown, err := shard.Partition(store.FromDataset(base), n, "")
				if err != nil {
					t.Fatal(err)
				}
				if cubes {
					if err := set.BuildCubes(); err != nil {
						t.Fatal(err)
					}
					if err := grown.BuildCubes(); err != nil {
						t.Fatal(err)
					}
				}
				add(fmt.Sprintf("shards=%d cubes=%v", n, cubes), set)
				next, err := grown.Append(rows[nbase:])
				if err != nil {
					t.Fatal(err)
				}
				touched := 0
				for si, rows := range next.Rows() {
					if rows != grown.Rows()[si] {
						touched++
					}
				}
				if dict := next.Snaps[0].Dims[0].Dict; touched != 1 || len(dict) == len(grown.Snaps[0].Dims[0].Dict) {
					t.Fatalf("test premise: the batch touched %d shards and left %d values of a", touched, len(dict))
				}
				add(fmt.Sprintf("shards=%d cubes=%v appended", n, cubes), next)
			}
		}

		for _, attrs := range [][]string{{"a"}, {"c"}, {"a", "b"}, {"c", "a", "b", "v"}, {"a", "b", "v", "c"}, {"v", "c"}} {
			want := agg.GroupBy(full, attrs, "m")
			for _, src := range sources {
				_, got, err := src.eng.PredictGroupStats(attrs, "m", agg.Mean)
				if err != nil {
					t.Fatalf("round %d %s %v: %v", round, src.name, attrs, err)
				}
				if !got.Equal(want) {
					t.Errorf("round %d %s: group-by %v differs from the unsharded agg.GroupBy", round, src.name, attrs)
				}
			}
		}

		for _, groupBy := range [][]string{nil, {"a"}, {"c"}, {"a", "c"}, {"a", "b"}, {"a", "b", "c"}} {
			tuple := data.Predicate{}
			at := rows[rng.Intn(len(rows))].Dims
			for _, a := range groupBy {
				tuple[a] = at[slices.Index(names, a)]
			}
			c := core.Complaint{Agg: agg.Sum, Measure: "m", Tuple: tuple, Direction: core.TooLow}
			var wantJSON []byte
			for _, src := range sources {
				label := fmt.Sprintf("round %d %s group-by %v tuple %v", round, src.name, groupBy, tuple)
				sess, err := src.eng.NewSession(groupBy)
				if err != nil {
					t.Fatal(err)
				}
				rec, err := sess.Recommend(c)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for _, hr := range rec.All {
					h, _ := full.HierarchyOf(hr.Attr)
					// The engine's canonical drilled order: other hierarchies
					// first, the drilled one last.
					var attrs []string
					for _, a := range groupBy {
						if !h.Contains(a) {
							attrs = append(attrs, a)
						}
					}
					attrs = append(attrs, h.Attrs[:h.Level(hr.Attr)+1]...)
					var children, empty []string
					for _, gs := range hr.Ranked {
						if gs.Group.Stats.Count > 0 {
							children = append(children, data.EncodeKey(gs.Group.Vals))
						} else {
							empty = append(empty, gs.Group.Vals[len(attrs)-1])
						}
					}
					sort.Strings(children)
					sort.Strings(empty)
					if want := referenceChildren(full, attrs, tuple); !slices.Equal(children, want) {
						t.Errorf("%s drilling %s: children %q, reference %q", label, hr.Attr, children, want)
					}
					if want := referenceEmptySiblings(full, h, hr.Attr, tuple); !slices.Equal(empty, want) {
						t.Errorf("%s drilling %s: empty siblings %q, reference %q", label, hr.Attr, empty, want)
					}
				}
				got, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				if wantJSON == nil {
					wantJSON = got
				} else if !bytes.Equal(got, wantJSON) {
					t.Errorf("%s: recommendation differs from the row scan's", label)
				}
			}
		}
	}
}
