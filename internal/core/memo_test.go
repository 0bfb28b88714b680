package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/agg"
	"repro/internal/data"
	"repro/internal/feature"
)

// countingShard wraps a ShardWorker and counts the data-plane calls the
// engine makes, keyed by what was asked for. The worker is a named field, not
// embedded: a method added to ShardWorker must be forwarded — and counted —
// here before the package compiles again.
type countingShard struct {
	inner ShardWorker
	mu    sync.Mutex
	calls map[string]int
}

func (c *countingShard) count(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls[key]++
}

func (c *countingShard) PartialGroupBy(attrs []string, measure string) (*agg.Result, error) {
	c.count(fmt.Sprintf("groupby %q %q", attrs, measure))
	return c.inner.PartialGroupBy(attrs, measure)
}

func mustJSON(t *testing.T, s *Session, c Complaint) []byte {
	t.Helper()
	rec, err := s.Recommend(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSessionsShareEngineState asserts that what depends only on the dataset
// is computed once per engine, not once per session or per complaint: two
// sessions at the same drill state cost one shard group-by per distinct
// (attrs, measure), hierarchy paths included, whatever the aggregates
// complained about, and a drilled session aggregates at the new granularity.
func TestSessionsShareEngineState(t *testing.T) {
	sc := buildScenario(13)
	shard := &countingShard{inner: LocalShard(sc.ds), calls: map[string]int{}}
	eng, err := NewShardedEngine(sc.ds, []ShardWorker{shard},
		Options{EMIterations: 4, Trainer: TrainerFactorised})
	if err != nil {
		t.Fatal(err)
	}
	complaint := func(f agg.Func, tuple data.Predicate) Complaint {
		return Complaint{Agg: f, Measure: "severity", Tuple: tuple, Direction: TooLow}
	}
	d1 := data.Predicate{"district": "d1"}

	var sessions [2]*Session
	for i := range sessions {
		if sessions[i], err = eng.NewSession([]string{"district"}); err != nil {
			t.Fatal(err)
		}
	}
	// One group-by per distinct (attrs, measure): each candidate's drilled
	// relation and each factor source's paths, where geo's paths are the geo
	// drill-down's own relation. That is everything one recommend asks of the
	// data plane, and everything the later ones at this drill state share.
	wantCalls := map[string]int{
		`groupby ["district" "village"] "severity"`: 1,
		`groupby ["district" "year"] "severity"`:    1,
		`groupby ["year"] "severity"`:               1,
	}
	checkCalls := func(when string) {
		t.Helper()
		for key, want := range wantCalls {
			if got := shard.calls[key]; got != want {
				t.Errorf("%s: %s: %d calls, want %d", when, key, got, want)
			}
		}
		if len(shard.calls) != len(wantCalls) {
			t.Errorf("%s: unexpected shard calls: %v", when, shard.calls)
		}
	}
	first := mustJSON(t, sessions[0], complaint(agg.Mean, d1))
	checkCalls("one recommend")
	mustJSON(t, sessions[0], complaint(agg.Sum, d1))
	mustJSON(t, sessions[0], complaint(agg.Std, d1))
	if second := mustJSON(t, sessions[1], complaint(agg.Mean, d1)); !bytes.Equal(first, second) {
		t.Error("a second session at the same drill state returned a different recommendation")
	}
	checkCalls("four recommends over two sessions")

	if err := sessions[0].Drill("geo"); err != nil {
		t.Fatal(err)
	}
	rec, err := sessions[0].Recommend(complaint(agg.Mean, data.Predicate{"district": "d1", "village": "d1_v0"}))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Best.Hierarchy != "time" {
		t.Errorf("only time is drillable after geo is exhausted, got %q", rec.Best.Hierarchy)
	}
	if got := shard.calls[`groupby ["district" "village" "year"] "severity"`]; got != 1 {
		t.Errorf("drilled complaint aggregated the new granularity %d times, want 1", got)
	}
}

// drillWalk is a drill walk over the scenario data: complaints at three drill
// states, every aggregate at the first.
var drillWalk = []struct {
	drill string // hierarchy drilled before the complaint ("" = none)
	agg   agg.Func
	tuple data.Predicate
}{
	{"", agg.Mean, data.Predicate{}},
	{"", agg.Sum, data.Predicate{}},
	{"", agg.Std, data.Predicate{}},
	{"", agg.Count, data.Predicate{}},
	{"geo", agg.Mean, data.Predicate{"district": "d2"}},
	{"", agg.Std, data.Predicate{"district": "d2"}},
	{"time", agg.Sum, data.Predicate{"district": "d2", "year": "1992"}},
	{"", agg.Mean, data.Predicate{"district": "d2", "year": "1992"}},
}

// runWalk replays drillWalk on a new session of eng (on a new engine per step
// when eng is nil — the reference, which shares nothing) and returns each
// answer's JSON.
func runWalk(t *testing.T, sc *scenario, opts Options, eng *Engine) [][]byte {
	t.Helper()
	var groupBy []string
	depth := map[string]int{}
	var s *Session
	var out [][]byte
	for i, step := range drillWalk {
		if step.drill != "" {
			h := sc.ds.Hierarchies[0]
			if step.drill == "time" {
				h = sc.ds.Hierarchies[1]
			}
			groupBy = append(groupBy, h.Attrs[depth[h.Name]])
			depth[h.Name]++
		}
		switch {
		case eng == nil:
			fresh, err := NewEngine(sc.ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			if s, err = fresh.NewSession(groupBy); err != nil {
				t.Fatal(err)
			}
		case i == 0:
			var err error
			if s, err = eng.NewSession(nil); err != nil {
				t.Fatal(err)
			}
		case step.drill != "":
			if err := s.Drill(step.drill); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, mustJSON(t, s, Complaint{Agg: step.agg, Measure: "severity", Tuple: step.tuple, Direction: TooLow}))
	}
	return out
}

// walkStep drills s as drillWalk's step i says and answers its complaint, as
// JSON.
func walkStep(s *Session, i int) ([]byte, error) {
	step := drillWalk[i]
	if step.drill != "" {
		if err := s.Drill(step.drill); err != nil {
			return nil, err
		}
	}
	rec, err := s.Recommend(Complaint{Agg: step.agg, Measure: "severity", Tuple: step.tuple, Direction: TooLow})
	if err != nil {
		return nil, err
	}
	return json.Marshal(rec)
}

// raceWalk replays drillWalk on n sessions of eng at once: every session
// takes each step together with the others (drill included) and waits for
// them before the next. It returns each session's answers.
func raceWalk(t *testing.T, eng *Engine, n int) [][][]byte {
	t.Helper()
	sessions := make([]*Session, n)
	for i := range sessions {
		var err error
		if sessions[i], err = eng.NewSession(nil); err != nil {
			t.Fatal(err)
		}
	}
	out := make([][][]byte, n)
	for step := range drillWalk {
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i, s := range sessions {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var b []byte
				b, errs[i] = walkStep(s, step)
				out[i] = append(out[i], b)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	return out
}

// TestWarmEngineMatchesFresh: for every trainer, a drill walk on an engine
// another session has already warmed returns, byte for byte, what a fresh
// engine per complaint returns; so does each of eight sessions racing every
// step of the walk on a new engine.
func TestWarmEngineMatchesFresh(t *testing.T) {
	sc := buildScenario(15)
	sc.corruptMean("d2_v1", "1992", -4)
	for _, trainer := range []TrainerKind{TrainerAuto, TrainerNaive, TrainerFactorised, TrainerNaiveFull} {
		opts := Options{EMIterations: 4, Trainer: trainer}
		want := runWalk(t, sc, opts, nil)
		eng, err := NewEngine(sc.ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, leg := range []string{"cold", "warm"} {
			for i, got := range runWalk(t, sc, opts, eng) {
				if !bytes.Equal(got, want[i]) {
					t.Errorf("trainer %v, %s engine, step %d: differs from a fresh engine", trainer, leg, i)
				}
			}
		}
		if eng, err = NewEngine(sc.ds, opts); err != nil {
			t.Fatal(err)
		}
		for si, answers := range raceWalk(t, eng, 8) {
			for i, got := range answers {
				if !bytes.Equal(got, want[i]) {
					t.Errorf("trainer %v, racing session %d, step %d: differs from a fresh engine", trainer, si, i)
				}
			}
		}
	}
}

// TestMemoBudget lowers the budget under a drill walk: the table must evict
// rather than grow, an entry larger than the whole budget must be served but
// not kept, and no answer may change.
func TestMemoBudget(t *testing.T) {
	sc := buildScenario(16)
	opts := Options{EMIterations: 4, Trainer: TrainerFactorised}
	want := runWalk(t, sc, opts, nil)
	// The walk's largest group-by is village × year = 120 groups; 150 holds
	// any one entry but not two of the deepest state's, 100 not even one.
	for _, budget := range []int{150, 100} {
		eng, err := NewEngine(sc.ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		eng.memo.budget = budget
		for i, got := range runWalk(t, sc, opts, eng) {
			if !bytes.Equal(got, want[i]) {
				t.Errorf("budget %d, step %d: differs from the unbounded answer", budget, i)
			}
		}
		if eng.memo.used > budget {
			t.Errorf("budget %d: table retains %d groups", budget, eng.memo.used)
		}
		if _, kept := eng.memo.entries[`groups ["district"] "severity"`]; kept {
			t.Errorf("budget %d: the first state's group-by survived, so the table never evicted", budget)
		}
		if _, deepest := eng.memo.entries[`groups ["year" "district" "village"] "severity"`]; budget < 120 && deepest {
			t.Errorf("budget %d: a 120-group entry was retained", budget)
		}
		// The last entry the walk builds is the deepest drill-down's
		// factorizer, after the group-bys its sources are read from.
		if _, kept := eng.memo.entries[`factorizer ["year" "district" "village"]`]; !kept {
			t.Errorf("budget %d: the last entry built, which fits, was not retained", budget)
		}
	}
}

// TestEvictionKeepsRecentStates: two sessions alternate between the root
// state and a deepest state each (geo drilled one level under time, and geo
// drilled through with time not drilled), under a budget that holds the root
// state and one deepest state but not both deepest γs. Each deep visit evicts
// the other deep state, which is less recently used than the root, so after
// the first visit a root-state recommend builds nothing, the root γ and its
// fits stay retained, and no answer changes.
func TestEvictionKeepsRecentStates(t *testing.T) {
	sc := buildScenario(19)
	opts := Options{EMIterations: 4, Trainer: TrainerFactorised}
	states := [][]string{nil, {"district", "year"}, {"district", "village"}}
	tuples := []data.Predicate{{}, {"district": "d1", "year": "1992"}, {"district": "d1", "village": "d1_v0"}}
	complaint := func(si int) Complaint {
		return Complaint{Agg: agg.Std, Measure: "severity", Tuple: tuples[si], Direction: TooHigh}
	}
	newEngine := func() *Engine {
		eng, err := NewEngine(sc.ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	newSession := func(eng *Engine, si int) *Session {
		s, err := eng.NewSession(states[si])
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	want := make([][]byte, len(states))
	for si := range states {
		want[si] = mustJSON(t, newSession(newEngine(), si), complaint(si))
	}
	// The budget is what the root state and the first deepest state retain
	// together; the second deepest state's 120-group γ does not fit beside
	// them.
	eng := newEngine()
	for si := range states {
		mustJSON(t, newSession(eng, si), complaint(si))
		if si == 1 {
			eng.memo.budget = eng.memo.used
		}
	}
	budget := eng.memo.budget

	eng = newEngine()
	eng.memo.budget = budget
	sessions := make([]*Session, len(states))
	for si := range states {
		sessions[si] = newSession(eng, si)
	}
	const rootGroups, rootFit = `groups ["district"] "severity"`, `fit ["district"] "severity" "std"`
	for round := range 4 {
		for _, deep := range []int{1, 2} { // one session's turn, then the other's
			before := eng.MemoStats()
			if got := mustJSON(t, sessions[0], complaint(0)); !bytes.Equal(got, want[0]) {
				t.Errorf("round %d: the root state differs from a fresh engine", round)
			}
			if after := eng.MemoStats(); (round > 0 || deep > 1) && !maps.Equal(after.Builds, before.Builds) {
				t.Errorf("round %d: a root-state recommend built; builds %v, then %v", round, before.Builds, after.Builds)
			}
			if got := mustJSON(t, sessions[deep], complaint(deep)); !bytes.Equal(got, want[deep]) {
				t.Errorf("round %d: state %v differs from a fresh engine", round, states[deep])
			}
			for _, key := range []string{rootGroups, rootFit} {
				if e, ok := eng.memo.entries[key]; !ok || !e.kept {
					t.Errorf("round %d, after state %v: %s is not retained", round, states[deep], key)
				}
			}
		}
	}
	// Each deep visit after the first two rebuilt its γ: the other deep
	// state's visit had evicted it.
	st := eng.MemoStats()
	if st.Evictions == 0 || st.RetainedGroups > budget || st.Builds["groups"] < 8 {
		t.Errorf("memo stats %+v: want evictions, ≥ 8 group-bys built, at most %d groups retained", st, budget)
	}
}

// TestRacingSessionsEvict: eight sessions race every step of a drill walk on
// one engine whose budget forces evictions while builds are in flight, and
// every answer is still what a fresh engine returns.
func TestRacingSessionsEvict(t *testing.T) {
	sc := buildScenario(16)
	opts := Options{EMIterations: 4, Trainer: TrainerAuto}
	want := runWalk(t, sc, opts, nil)
	for _, budget := range []int{150, 100} {
		eng, err := NewEngine(sc.ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		eng.memo.budget = budget
		for si, answers := range raceWalk(t, eng, 8) {
			for i, got := range answers {
				if !bytes.Equal(got, want[i]) {
					t.Errorf("budget %d, racing session %d, step %d: differs from a fresh engine", budget, si, i)
				}
			}
		}
		if st := eng.MemoStats(); st.Evictions == 0 || st.RetainedGroups > budget {
			t.Errorf("budget %d: memo stats %+v, want evictions within the budget", budget, st)
		}
	}
}

// TestFitsAreMemoised: a recommend repeated on the engine, from the same
// session or another at the same drill state, refits nothing, so a custom
// featurization runs once per (group-by, statistic), and the answer is the
// same.
func TestFitsAreMemoised(t *testing.T) {
	sc := buildScenario(18)
	var calls atomic.Int32
	opts := Options{EMIterations: 4, Custom: []feature.Custom{{Name: "rank", Attr: "district",
		Fn: func(vals []string, _ *agg.Result) map[string]float64 {
			calls.Add(1)
			m := make(map[string]float64, len(vals))
			for i, v := range vals {
				m[v] = float64(i)
			}
			return m
		}}}}
	eng, err := NewEngine(sc.ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := Complaint{Agg: agg.Std, Measure: "severity", Tuple: data.Predicate{"district": "d1"}, Direction: TooHigh}
	var answers [][]byte
	for range 2 {
		s, err := eng.NewSession([]string{"district"})
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, mustJSON(t, s, c), mustJSON(t, s, c))
	}
	// Std fits mean and std in each drill-down, both of which keep district.
	if n := calls.Load(); n != 4 {
		t.Errorf("custom featurization ran %d times over four recommends, want 4", n)
	}
	for i, got := range answers[1:] {
		if !bytes.Equal(got, answers[0]) {
			t.Errorf("recommend %d differs from the first", i+1)
		}
	}
}

// TestFitLivesWithItsGroupBy lowers the budget below the walk's largest
// group-by: a fit is retained only while the group-by it was fitted on is, so
// the largest one's fits are never kept and a reset drops every fit with its
// group-by, and no answer changes.
func TestFitLivesWithItsGroupBy(t *testing.T) {
	sc := buildScenario(16)
	opts := Options{EMIterations: 4, Trainer: TrainerFactorised}
	want := runWalk(t, sc, opts, nil)
	eng, err := NewEngine(sc.ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng.memo.budget = 100 // village × year has 120 groups
	s, err := eng.NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	const rootFit = `fit ["district"] "severity" "mean"`
	for i := range drillWalk {
		got, err := walkStep(s, i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Errorf("step %d: differs from the unbounded answer", i)
		}
		if _, kept := eng.memo.entries[rootFit]; i == 0 && !kept {
			t.Errorf("step 0: %s was not retained", rootFit)
		}
		for key := range eng.memo.entries {
			attrs, isFit := strings.CutPrefix(key, "fit ")
			if !isFit {
				continue
			}
			if strings.HasPrefix(attrs, `["year" "district" "village"]`) {
				t.Errorf("step %d: %s was retained beside a 120-group γ", i, key)
			}
			gkey := "groups " + attrs[:strings.LastIndexByte(attrs, ' ')]
			if _, kept := eng.memo.entries[gkey]; !kept {
				t.Errorf("step %d: %s outlived %s", i, key, gkey)
			}
		}
	}
	if _, kept := eng.memo.entries[rootFit]; kept {
		t.Errorf("%s survived the walk, so the table never reset", rootFit)
	}
}

// flakyShard panics in its first PartialGroupBy.
type flakyShard struct {
	inner    ShardWorker
	panicked atomic.Bool
}

func (f *flakyShard) PartialGroupBy(attrs []string, measure string) (*agg.Result, error) {
	if f.panicked.CompareAndSwap(false, true) {
		panic("flaky shard")
	}
	return f.inner.PartialGroupBy(attrs, measure)
}

// TestPanickingBuildLeavesNoEntry: a shard worker that panics on its first
// group-by fails that Recommend only. Were the entry left behind with its
// sync.Once spent, every later Recommend on the engine would get nil groups.
func TestPanickingBuildLeavesNoEntry(t *testing.T) {
	sc := buildScenario(17)
	c := Complaint{Agg: agg.Mean, Measure: "severity", Tuple: data.Predicate{"district": "d3"}, Direction: TooLow}
	opts := Options{EMIterations: 4, Trainer: TrainerNaive}
	answer := func(w ShardWorker, wantPanic bool) []byte {
		eng, err := NewShardedEngine(sc.ds, []ShardWorker{w}, opts)
		if err != nil {
			t.Fatal(err)
		}
		s, err := eng.NewSession([]string{"district"})
		if err != nil {
			t.Fatal(err)
		}
		if wantPanic {
			func() {
				defer func() {
					if recover() == nil {
						t.Error("first Recommend should re-raise the shard worker's panic")
					}
				}()
				s.Recommend(c)
			}()
		}
		return mustJSON(t, s, c)
	}
	got := answer(&flakyShard{inner: LocalShard(sc.ds)}, true)
	if want := answer(LocalShard(sc.ds), false); !bytes.Equal(got, want) {
		t.Error("Recommend after a panicked build differs from a fresh engine's answer")
	}
}

// TestPanickingBuildReleasesWaiters: callers that arrive while a build is
// running — whether they block on it or find its entry already removed — get a
// value from a build of their own once it panics, not the dead entry's zero.
func TestPanickingBuildReleasesWaiters(t *testing.T) {
	m := newMemo()
	one := func(int) int { return 1 }
	started, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if recover() == nil {
				t.Error("the panicking build's caller should see the panic")
			}
		}()
		memoGet(m, "k", func() (int, error) {
			close(started)
			<-release
			panic("boom")
		}, one)
	}()
	<-started
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := memoGet(m, "k", func() (int, error) { return 42, nil }, one)
			if v != 42 || err != nil {
				t.Errorf("waiter got (%d, %v), want (42, nil)", v, err)
			}
		}()
	}
	close(release)
	wg.Wait()
}

// TestMemoKeyMatchesSprintf holds memoKey to the fmt form the memo's keys
// were first written in, over values fmt escapes: quotes, backslashes,
// control bytes, multi-byte runes and invalid UTF-8.
func TestMemoKeyMatchesSprintf(t *testing.T) {
	vals := []string{"", "a", `"q"`, `b\s`, "t\tn\n", "\x00", "\x1f", "é", "日本", "\xff\xfe", "a b"}
	for i := range vals {
		attrs := vals[i:min(i+3, len(vals))]
		for _, m := range vals {
			if got, want := memoKey("groups", attrs, m), fmt.Sprintf("groups %q %q", attrs, m); got != want {
				t.Errorf("memoKey(groups, %q, %q) = %s, want %s", attrs, m, got, want)
			}
			if got, want := memoKey("fit", attrs, m, "mean"), fmt.Sprintf("fit %q %q %q", attrs, m, "mean"); got != want {
				t.Errorf("memoKey(fit, %q, %q) = %s, want %s", attrs, m, got, want)
			}
		}
		if got, want := memoKey("factorizer", attrs[:0]), fmt.Sprintf("factorizer %q", attrs[:0]); got != want {
			t.Errorf("memoKey(factorizer, []) = %s, want %s", got, want)
		}
	}
}
