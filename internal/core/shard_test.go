package core

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/data"
)

// TestMergePartialsByCode: partials coded against one dictionary merge by
// code, in shard order; a partial whose dictionary differs in any way — a
// prefix, a reordering, a divergence — is refused, not re-interned.
func TestMergePartialsByCode(t *testing.T) {
	attrs := []string{"a"}
	part := func(dict []string, codes ...uint32) *agg.Result {
		stats := make([]agg.Stats, len(codes))
		for i := range stats {
			stats[i] = agg.Stats{Count: 1, Sum: float64(codes[i]), SumSq: 1}
		}
		return agg.FromCodes(attrs, "m", [][]string{dict}, nil, codes, stats)
	}
	dict := []string{"y", "x", "w"}
	got, err := mergePartials(attrs, "m", []*agg.Result{part(dict, 0, 1), part(dict, 2, 1), part(slices.Clone(dict), 1)})
	if err != nil {
		t.Fatal(err)
	}
	want := agg.NewResult(attrs, "m", []agg.Group{
		{Vals: []string{"w"}, Stats: agg.Stats{Count: 1, Sum: 2, SumSq: 1}},
		{Vals: []string{"x"}, Stats: agg.Stats{Count: 3, Sum: 3, SumSq: 3}},
		{Vals: []string{"y"}, Stats: agg.Stats{Count: 1, Sum: 0, SumSq: 1}},
	})
	if !got.Equal(want) {
		t.Errorf("merged groups %+v, want %+v", got.Decode().Groups, want.Groups)
	}
	for name, other := range map[string][]string{"prefix": {"y", "x"}, "reordered": {"x", "y", "w"}, "diverging": {"y", "x", "v"}} {
		_, err := mergePartials(attrs, "m", []*agg.Result{part(dict, 0), part(other, 0)})
		if err == nil || !strings.Contains(err.Error(), "do not share") {
			t.Errorf("%s dictionary: error %v, want a refusal", name, err)
		}
	}
}

type spanNames struct {
	mu    sync.Mutex
	names []string
}

func (s *spanNames) StartSpan(name string) func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.names = append(s.names, name)
	return func() {}
}

// TestScatterSpanOnlyOverPartitions: the engine's stage names are groupby and
// fit, plus scatter when — and only when — the data plane gathers partitions.
func TestScatterSpanOnlyOverPartitions(t *testing.T) {
	sc := buildScenario(23)
	opts := Options{EMIterations: 2, Workers: 1}
	plain, err := NewEngine(sc.ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	var odd, even []int
	for row := 0; row < sc.ds.NumRows(); row++ {
		if row%2 == 1 {
			odd = append(odd, row)
		} else {
			even = append(even, row)
		}
	}
	sharded, err := NewShardedEngine(sc.ds, []ShardWorker{LocalShard(sc.ds.Select(odd)), LocalShard(sc.ds.Select(even))}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		eng  *Engine
		want []string
	}{
		{"plain", plain, []string{"fit", "groupby"}},
		{"sharded", sharded, []string{"fit", "groupby", "scatter"}},
	} {
		s, err := tc.eng.NewSession([]string{"district"})
		if err != nil {
			t.Fatal(err)
		}
		rec := &spanNames{}
		c := Complaint{Agg: agg.Mean, Measure: "severity", Tuple: data.Predicate{"district": "d1"}, Direction: TooLow}
		if _, err := s.RecommendContext(WithSpanRecorder(context.Background(), rec), c); err != nil {
			t.Fatal(err)
		}
		slices.Sort(rec.names)
		if got := slices.Compact(rec.names); !slices.Equal(got, tc.want) {
			t.Errorf("%s: spans %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestGatherMergeKeysEveryAttribute: two shards, each validated over its own
// rows, file one village under different districts and regions. Either shard
// may bucket its own rows by the village alone, since its rows satisfy the
// hierarchy's FDs; the union's do not, so the gather's merge keys every
// attribute. Its PartialGroupBy equals the string reference over the union of
// the rows, for every subset of the hierarchy in both orders.
func TestGatherMergeKeysEveryAttribute(t *testing.T) {
	h := []data.Hierarchy{{Name: "geo", Attrs: []string{"region", "district", "village"}}}
	union := data.New("split", []string{"region", "district", "village"}, []string{"m"}, h)
	var shardRows [2][]int
	for i := range 2100 { // both shards span a 1,024-row block edge
		r := []string{"north", "d1", "v1"}
		switch {
		case i%5 == 0:
			r = []string{"south", "d3", "v3"}
		case i%7 == 0:
			r = []string{"north", "d1", "v2"}
		case i%2 == 1:
			r = []string{"south", "d2", "v1"} // shard 1 re-files v1
		}
		union.AppendRowVals(r, []float64{float64(i % 11)})
		shardRows[i%2] = append(shardRows[i%2], i)
	}
	if union.Clone().Validate() == nil {
		t.Fatal("test premise: the union's rows satisfy every FD")
	}
	workers := make([]ShardWorker, 2)
	shards := make([]*data.Dataset, 2)
	for si, rows := range shardRows {
		shards[si] = union.Select(rows)
		if err := shards[si].Validate(); err != nil {
			t.Fatalf("shard %d: %v", si, err)
		}
		workers[si] = LocalShard(shards[si])
	}
	eng, err := NewShardedEngine(shards[0], workers, Options{EMIterations: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, attrs := range [][]string{
		{"region"}, {"region", "district"}, {"region", "district", "village"},
		{"region", "village"}, {"district", "village"}, {"village"},
		{"village", "district", "region"}, {"village", "region"},
	} {
		index := map[string]int{}
		var groups []agg.Group
		for row, v := range union.Measure("m") {
			vals := make([]string, len(attrs))
			for i, a := range attrs {
				vals[i] = union.Dim(a)[row]
			}
			gi, ok := index[data.EncodeKey(vals)]
			if !ok {
				gi = len(groups)
				index[data.EncodeKey(vals)] = gi
				groups = append(groups, agg.Group{Vals: vals})
			}
			groups[gi].Stats = groups[gi].Stats.Add(agg.Stats{Count: 1, Sum: v, SumSq: v * v})
		}
		got, err := eng.src.PartialGroupBy(attrs, "m")
		if err != nil {
			t.Fatal(err)
		}
		if want := agg.NewResult(attrs, "m", groups); !got.Equal(want) {
			t.Errorf("%v: gathered %+v, want %+v", attrs, got.Decode().Groups, want.Groups)
		}
	}
}
