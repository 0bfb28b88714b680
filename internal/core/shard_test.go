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
	sharded, err := NewShardedEngine(sc.ds, []ShardWorker{LocalShard(sc.ds.Select(odd)), LocalShard(sc.ds.Select(even))}, "district", opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		eng  *Engine
		want []string
	}{
		{plain, []string{"fit", "groupby"}},
		{sharded, []string{"fit", "groupby", "scatter"}},
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
			t.Errorf("%d shards: spans %v, want %v", tc.eng.NumShards(), got, tc.want)
		}
	}
}
