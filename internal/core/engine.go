package core

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/agg"
	"repro/internal/data"
	"repro/internal/factor"
	"repro/internal/feature"
	"repro/internal/fmatrix"
	"repro/internal/mlm"
)

// TrainerKind selects how the multi-level model is trained.
type TrainerKind int

const (
	// TrainerAuto picks Factorised when the observed groups nearly fill the
	// cross product of hierarchy paths (and the cross product is
	// enumerable), and Naive otherwise.
	TrainerAuto TrainerKind = iota
	// TrainerNaive materializes the design matrix over observed groups.
	TrainerNaive
	// TrainerFactorised trains over the factorised representation; missing
	// cross-product cells carry y = 0 (the worst-case regime of §5.1.4).
	TrainerFactorised
	// TrainerNaiveFull materializes the complete cross-product feature
	// matrix (including empty groups) and trains densely over it — the
	// paper's Matlab regime, used as the Figure 10 comparator.
	TrainerNaiveFull
)

// RandomEffects selects the random-effects design Z (§3.3.4).
type RandomEffects int

const (
	// ZAuto uses intercept-only random effects when clusters are too small
	// to identify per-cluster coefficients for every feature (which would
	// let the random effects absorb the very anomalies Reptile looks for),
	// and the full Z = X design otherwise.
	ZAuto RandomEffects = iota
	// ZFull uses Z = X (minus features excluded via ExcludeFromZ).
	ZFull
	// ZIntercept uses intercept-only random effects.
	ZIntercept
)

// Options configures an Engine.
type Options struct {
	// EMIterations is the number of EM iterations per model (paper: 20).
	EMIterations int
	// Trainer selects the training backend.
	Trainer TrainerKind
	// TopK bounds the groups reported per hierarchy (0 = all).
	TopK int
	// Aux lists auxiliary datasets available for featurization.
	Aux []feature.Aux
	// Custom lists custom featurizations.
	Custom []feature.Custom
	// GroupFeatures lists multi-attribute (per-group) features such as
	// temporal lags. Their presence forces the naive trainer (Appendix H).
	// Fits are memoised (see fitModel), so Aux's joins and the Custom and
	// GroupFeatures callbacks run once per (drilled group-by, statistic) per
	// engine.
	GroupFeatures []feature.GroupFeature
	// ExcludeFromZ names features excluded from the random-effects design.
	ExcludeFromZ []string
	// RandomEffects selects the Z design (default ZAuto).
	RandomEffects RandomEffects
	// Repair, when non-nil, replaces the default model-based frepair
	// (§3.1): it receives a drill-down group's statistics and the model's
	// expected values for the complaint's base statistics, and returns the
	// repaired statistics.
	Repair func(s agg.Stats, pred map[agg.Func]float64) agg.Stats
	// KeepLeaky disables the one-to-one main-effect guard (AblationLeakGuard).
	KeepLeaky bool
	// Workers bounds a Recommend call's fan-out: its model fits, one per
	// (candidate hierarchy, base statistic), run on one pool of at most
	// Workers goroutines. 0 (the default) selects runtime.NumCPU(); 1 forces
	// the sequential path. Parallel evaluation is deterministic: it produces
	// the same recommendation as Workers == 1.
	Workers int
}

// factorisedFillThreshold is the minimum observed-group fill ratio for
// TrainerAuto to pick the factorised backend.
const factorisedFillThreshold = 0.7

func (o Options) withDefaults() Options {
	if o.EMIterations <= 0 {
		o.EMIterations = 20
	}
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	return o
}

// Engine answers complaint-based drill-down queries over one dataset. The
// dataset is immutable, so state that depends only on it — factor sources,
// drilled group-bys, factorizers — is built once per engine (see memo.go) and
// shared by every session. An Engine is safe for concurrent use: many
// sessions may Recommend against it at once.
type Engine struct {
	ds   *data.Dataset
	opts Options

	// src is the data plane, the only thing every aggregation (hierarchy paths
	// included) asks (see shard.go): LocalShard(ds), or for NewShardedEngine a
	// gather over the partitions — ds is then the schema dataset (the first
	// shard's, by convention), consulted for hierarchies and measure names
	// only.
	src ShardWorker

	memo *memo
}

// NewEngine validates the dataset's hierarchy metadata and builds an engine.
func NewEngine(ds *data.Dataset, opts Options) (*Engine, error) {
	if ds == nil {
		return nil, fmt.Errorf("core: nil dataset")
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if len(ds.Hierarchies) == 0 {
		return nil, fmt.Errorf("core: dataset %q has no hierarchies", ds.Name)
	}
	return &Engine{ds: ds, opts: opts.withDefaults(), src: LocalShard(ds), memo: newMemo()}, nil
}

// sourceFor returns the factorizer source of a hierarchy (the §4.4 caching
// regime: distinct hierarchy paths never change). A hierarchy's paths are the
// groups of γ over its own attributes, so they come from the memoised
// group-by, over any measure: a drill state whose drilled relation is h's
// path set shares that one call. The source keeps the γ's codes and
// dictionaries; nothing is decoded.
func (e *Engine) sourceFor(h data.Hierarchy, measure string) (*factor.Source, error) {
	return memoGet(e.memo, fmt.Sprintf("source %q", h.Name), func() (*factor.Source, error) {
		groups, err := e.groups(nil, h.Attrs, measure)
		if err != nil {
			return nil, err
		}
		return factor.NewCodedSource(h.Name, groups)
	}, (*factor.Source).Len)
}

// Dataset returns the engine's dataset. On a sharded engine this is the
// schema dataset (the first shard's), whose rows are that shard's partition
// only — callers use it for schema, not data.
func (e *Engine) Dataset() *data.Dataset { return e.ds }

// Workers returns the resolved evaluation worker-pool size (Options.Workers
// after defaulting), so serving layers can size admission limits to the pool
// they actually admit onto.
func (e *Engine) Workers() int { return e.opts.Workers }

// Session is a cursor over an Engine: the user's drill-down state (the
// current group-by attributes, as per-hierarchy prefix depths) and nothing
// else. The aggregations and factorised representations a Recommend reads
// live on the engine, so sessions at the same drill state share them.
// Recommend is safe to call concurrently with itself; Drill is safe to call
// concurrently too, and a Recommend racing a Drill observes either drill
// state — never a torn mix of the two.
type Session struct {
	eng   *Engine
	dmu   sync.RWMutex   // guards depth
	depth map[string]int // hierarchy name → number of attributes in Agb
}

// evalState is one Recommend call's consistent view of the session: the
// drill-depth snapshot and the call's span recorder (nil when untraced).
// Threading the recorder here keeps it off the context on the hot path.
type evalState struct {
	depth map[string]int
	rec   SpanRecorder
}

// NewSession starts a session with the given initial group-by attributes.
// Each hierarchy's attributes must form a prefix.
func (e *Engine) NewSession(groupBy []string) (*Session, error) {
	s := &Session{eng: e, depth: make(map[string]int)}
	for _, h := range e.ds.Hierarchies {
		s.depth[h.Name] = 0
	}
	for _, a := range groupBy {
		h, ok := e.ds.HierarchyOf(a)
		if !ok {
			return nil, fmt.Errorf("core: group-by attribute %q not in any hierarchy", a)
		}
		lvl := h.Level(a)
		if lvl+1 > s.depth[h.Name] {
			s.depth[h.Name] = lvl + 1
		}
	}
	// Verify prefixes: depth k means attributes 0..k-1 are all present.
	for _, h := range e.ds.Hierarchies {
		for l := 0; l < s.depth[h.Name]; l++ {
			if !slices.Contains(groupBy, h.Attrs[l]) {
				return nil, fmt.Errorf("core: group-by attributes of hierarchy %q are not a prefix (missing %q)", h.Name, h.Attrs[l])
			}
		}
	}
	return s, nil
}

// snapshot copies the drill depths under their lock. Recommend takes one
// snapshot per call and threads it through the evaluation, so a Drill racing
// a Recommend flips the whole call to the old or new state.
func (s *Session) snapshot() evalState {
	s.dmu.RLock()
	defer s.dmu.RUnlock()
	return evalState{depth: maps.Clone(s.depth)}
}

// StateKey returns a stable encoding of the session's drill state: every
// hierarchy's current depth, in dataset hierarchy order. Two sessions over
// the same engine with equal state keys return identical recommendations for
// equal complaints, so (StateKey, Complaint.Key) is a sound recommendation
// cache key. The key changes on every Drill.
func (s *Session) StateKey() string {
	st := s.snapshot()
	var b strings.Builder
	for i, h := range s.eng.ds.Hierarchies {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%s:%d", h.Name, st.depth[h.Name])
	}
	return b.String()
}

// GroupBy returns the current group-by attributes in canonical order
// (hierarchy by hierarchy, least to most specific).
func (s *Session) GroupBy() []string {
	st := s.snapshot()
	var out []string
	for _, h := range s.eng.ds.Hierarchies {
		for l := 0; l < st.depth[h.Name]; l++ {
			out = append(out, h.Attrs[l])
		}
	}
	return out
}

// Drill accepts a recommendation: it extends the named hierarchy's group-by
// prefix by one attribute.
func (s *Session) Drill(hierarchy string) error {
	for _, h := range s.eng.ds.Hierarchies {
		if h.Name != hierarchy {
			continue
		}
		s.dmu.Lock()
		defer s.dmu.Unlock()
		if s.depth[h.Name] >= len(h.Attrs) {
			return fmt.Errorf("core: hierarchy %q is fully drilled", hierarchy)
		}
		s.depth[h.Name]++
		return nil
	}
	return fmt.Errorf("core: unknown hierarchy %q", hierarchy)
}

// GroupScore is one ranked drill-down group: its values and statistics,
// decoded from the drilled relation for the ranked groups alone, the model's
// expected values, and the complaint score after repairing it.
type GroupScore struct {
	Group     agg.Group
	Predicted map[agg.Func]float64
	// Repaired is the complained tuple's aggregate after repairing this
	// group; Score is fcomp(Repaired). Gain is fcomp(current) − Score.
	Repaired float64
	Score    float64
	Gain     float64
}

// HierarchyResult is the evaluation of one candidate drill-down hierarchy.
type HierarchyResult struct {
	Hierarchy string
	Attr      string // the attribute the drill-down adds
	Current   float64
	Ranked    []GroupScore
	BestScore float64
}

// Recommendation is the output of one Reptile invocation: every candidate
// hierarchy's evaluation and the best one.
type Recommendation struct {
	Best *HierarchyResult
	All  []HierarchyResult
}

// Recommend solves the complaint-based drill-down problem (Problem 1): for
// every hierarchy with a remaining attribute it drills down, estimates each
// group's expected statistics with a multi-level model trained on the
// parallel groups, and ranks the groups by the repaired complaint value.
func (s *Session) Recommend(c Complaint) (*Recommendation, error) {
	return s.recommend(nil, c)
}

// RecommendContext is Recommend with per-stage tracing: when the context
// carries a SpanRecorder (WithSpanRecorder), the engine records spans for the
// group-by/cube phase, the shard scatter-gather, and the model fits of every
// candidate hierarchy. With no recorder the call is identical to Recommend.
func (s *Session) RecommendContext(ctx context.Context, c Complaint) (*Recommendation, error) {
	return s.recommend(spanRecorderFrom(ctx), c)
}

func (s *Session) recommend(rec SpanRecorder, c Complaint) (*Recommendation, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	// Every aggregate — COUNT included — is computed over a concrete measure
	// column, so an unknown measure is an error here rather than a panic
	// inside the aggregation pipeline.
	if !s.eng.ds.HasMeasure(c.Measure) {
		return nil, fmt.Errorf("core: unknown measure %q", c.Measure)
	}
	st := s.snapshot()
	st.rec = rec
	stats := c.baseStats()
	var cands []*candidate
	for _, h := range s.eng.ds.Hierarchies {
		if st.depth[h.Name] < len(h.Attrs) {
			cands = append(cands, &candidate{h: h, attrs: s.eng.drillAttrs(h, st.depth),
				fits: make([]*statModel, len(stats)), errs: make([]error, len(stats))})
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("core: every hierarchy is fully drilled")
	}
	// One job per (candidate, statistic), statistic-major so that the pool's
	// first jobs build different γs. A job whose fit is published (so is its
	// γ) runs inline, the rest on the pool. Each job writes its own slots, so
	// the answer stays byte-identical to the sequential path.
	var cold []job
	for si, stat := range stats {
		for _, cd := range cands {
			j := job{cd, si, fitKey(cd.attrs, c.Measure, stat)}
			if s.eng.memo.published(j.key) {
				s.eng.runJob(j, c, stats, st)
			} else {
				cold = append(cold, j)
			}
		}
	}
	s.eng.forEach(len(cold), func(i int) { s.eng.runJob(cold[i], c, stats, st) })
	results := make([]HierarchyResult, len(cands))
	for i, cd := range cands { // the first error in candidate, then statistic order
		if err := cmp.Or(cmp.Or(cd.errs...), cd.err); err != nil {
			return nil, fmt.Errorf("core: evaluating hierarchy %q: %w", cd.h.Name, err)
		}
		results[i] = *cd.res
	}
	best := &results[0]
	for i := range results {
		if scoreLess(results[i].BestScore, best.BestScore) {
			best = &results[i]
		}
	}
	return &Recommendation{Best: best, All: results}, nil
}

// scoreLess orders fcomp scores, lower first, with NaN (a custom fcomp or
// repair may yield one) after every number: the one order both the groups
// within a hierarchy and the hierarchies' best scores are ranked by, so a
// NaN never wins by its position in the input.
func scoreLess(a, b float64) bool {
	return a < b || (math.IsNaN(b) && !math.IsNaN(a))
}

// forEach runs fn(0..n-1) on the engine's worker budget: inline for one
// worker or one unit of work, else on a pool of min(Workers, n) goroutines.
// It backs the Recommend fan-out and the shard scatter-gather. A panic in a
// pool worker is re-raised on the calling goroutine, as on the sequential path.
func (e *Engine) forEach(n int, fn func(i int)) {
	workers := min(e.opts.Workers, n)
	if workers <= 1 {
		for i := range n {
			fn(i)
		}
		return
	}
	panics := make([]any, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics[i] = r
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	for i := range n {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// groups returns γ at the given granularity: the data plane's group-by,
// memoised per (attrs, measure). rec, when non-nil, records the call as a
// "groupby" span and, over partitions, its scatter-gather as a "scatter" one.
func (e *Engine) groups(rec SpanRecorder, attrs []string, measure string) (*agg.Result, error) {
	defer startSpan(rec, "groupby")()
	return memoGet(e.memo, groupsKey(attrs, measure), func() (*agg.Result, error) {
		if _, ok := e.src.(*gather); ok {
			defer startSpan(rec, "scatter")()
		}
		return e.src.PartialGroupBy(attrs, measure)
	}, (*agg.Result).Len)
}

// groupsKey is γ's memo key, which a fit's retention looks up too.
func groupsKey(attrs []string, measure string) string {
	return memoKey("groups", attrs, measure)
}

// memoKey builds the memo key of a value over attrs: kind, the attributes
// quoted and bracketed, and each arg quoted, space-separated — byte for byte
// fmt's "%s %q %q…" of the same, in one buffer.
func memoKey(kind string, attrs []string, args ...string) string {
	b := append(append(make([]byte, 0, 64), kind...), " ["...)
	for i, a := range attrs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendQuote(b, a)
	}
	b = append(b, ']')
	for _, a := range args {
		b = strconv.AppendQuote(append(b, ' '), a)
	}
	return string(b)
}

// drillAttrs returns the canonical attribute order after drilling hierarchy
// h: other hierarchies first (in dataset order), the drilled hierarchy's
// attributes last (§3.4's ordering restriction).
func (e *Engine) drillAttrs(h data.Hierarchy, depth map[string]int) []string {
	var out []string
	for _, other := range e.ds.Hierarchies {
		if other.Name == h.Name {
			continue
		}
		out = append(out, other.Attrs[:depth[other.Name]]...)
	}
	return append(out, h.Attrs[:depth[h.Name]+1]...)
}

// candidate is one Recommend call's drill-down into hierarchy h: the fits
// its jobs write, one slot per base statistic, and the evaluation its last
// job to finish ranks.
type candidate struct {
	h     data.Hierarchy
	attrs []string // the drilled group-by (drillAttrs)
	fits  []*statModel
	errs  []error
	done  atomic.Int32 // jobs finished
	res   *HierarchyResult
	err   error
}

// job fits the si-th base statistic of a candidate, under the fit's memo key.
type job struct {
	cd  *candidate
	si  int
	key string
}

// runJob fetches the candidate's γ (the parallel groups: the whole dataset at
// the drilled granularity) and fits the job's model over it; the candidate's
// last job to finish ranks it, unless one of its jobs failed.
func (e *Engine) runJob(j job, c Complaint, stats []agg.Func, st evalState) {
	cd := j.cd
	groups, err := e.groups(st.rec, cd.attrs, c.Measure)
	if err == nil {
		endFit := startSpan(st.rec, "fit")
		cd.fits[j.si], err = e.fitModel(cd.h, groups, stats[j.si], st.depth, j.key)
		endFit()
	}
	cd.errs[j.si] = err
	if int(cd.done.Add(1)) == len(stats) && cmp.Or(cd.errs...) == nil {
		cd.res, cd.err = e.evaluateHierarchy(cd.h, groups, stats, cd.fits, c, st)
	}
}

// evaluateHierarchy ranks the drill-down groups of h over its γ, scoring each
// with the expected values of the fits, one per base statistic.
func (e *Engine) evaluateHierarchy(h data.Hierarchy, groups *agg.Result, stats []agg.Func, fits []*statModel, c Complaint, st evalState) (*HierarchyResult, error) {
	attr := h.Attrs[st.depth[h.Name]]
	attrs := groups.Attrs

	// The tuple as codes of the drilled relation, translated once: anc holds
	// the conditions on attributes of the drilled hierarchy, rest the others,
	// and tupleCodes every attribute's, a code no dictionary holds where the
	// tuple names none. Attributes are visited in sorted order, so a tuple naming
	// several outside the drill-down always reports the same one.
	var anc, rest []codeCond
	k, last := len(attrs), len(attrs)-1 // attr is the drilled order's last
	tupleCodes := slices.Repeat([]uint32{math.MaxUint32}, k)
	for _, a := range slices.Sorted(maps.Keys(c.Tuple)) {
		ai := slices.Index(attrs, a)
		if ai < 0 {
			return nil, fmt.Errorf("complaint attribute %q not in drill-down", a)
		}
		// A value absent from the dictionary wraps to a code no group carries.
		cond := codeCond{ai, uint32(slices.Index(groups.Dicts[ai], c.Tuple[a]))}
		tupleCodes[ai] = cond.code
		if h.Contains(a) {
			anc = append(anc, cond)
		} else {
			rest = append(rest, cond)
		}
	}
	// σ and ∖ in one pass over the codes. A group matching anc carries a value
	// of attr that exists under the tuple's ancestors; if it matches rest too
	// it is one of the complained tuple's children. Values no child carries are
	// the empty drill-down groups (e.g. a village with no reports in the
	// complained year): repairing their statistics to the expectation resolves
	// missing-group errors that observed groups cannot explain.
	const candidate, observed = 1, 2
	seen := make([]uint8, len(groups.Dicts[last]))
	var children []int
	var total agg.Stats // the complained tuple's own statistics: G over its children
	for gi, s := range groups.Stats {
		codes := groups.Codes[gi*k : (gi+1)*k]
		if !matchCodes(anc, codes) {
			continue
		}
		seen[codes[last]] |= candidate
		if matchCodes(rest, codes) {
			seen[codes[last]] |= observed
			children = append(children, gi)
			total = total.Add(s)
		}
	}
	if len(children) == 0 {
		return nil, fmt.Errorf("complaint tuple %v has no provenance", c.Tuple)
	}
	dict := groups.Dicts[last]
	var empty []uint32
	for code, s := range seen {
		if s == candidate {
			empty = append(empty, uint32(code))
		}
	}
	slices.SortFunc(empty, func(a, b uint32) int { return strings.Compare(dict[a], dict[b]) })

	current := total.Get(c.Agg)

	repair := c.repairStats
	if e.opts.Repair != nil {
		repair = e.opts.Repair
	}
	score := func(g agg.Group, pred map[agg.Func]float64) GroupScore {
		repairedChild := repair(g.Stats, pred)
		// t'c = G(V'/{t} ∪ {frepair(t)})
		newTotal := total.Add(agg.Stats{
			Count: repairedChild.Count - g.Stats.Count,
			Sum:   repairedChild.Sum - g.Stats.Sum,
			SumSq: repairedChild.SumSq - g.Stats.SumSq,
		})
		repaired := newTotal.Get(c.Agg)
		sc := c.Eval(repaired)
		return GroupScore{
			Group:     g,
			Predicted: pred,
			Repaired:  repaired,
			Score:     sc,
			Gain:      c.Eval(current) - sc,
		}
	}

	hr := &HierarchyResult{Hierarchy: h.Name, Attr: attr, Current: current}
	for _, gi := range children {
		g := groups.Group(gi)
		pred := make(map[agg.Func]float64, len(fits))
		for si, sm := range fits {
			pred[stats[si]] = sm.preds[gi]
		}
		hr.Ranked = append(hr.Ranked, score(g, pred))
	}
	// Score the empty groups using model predictions for their feature rows,
	// with the random effects of the cluster containing their observed
	// siblings. An empty group carries the tuple's codes and its own for attr;
	// an attribute the tuple does not name reads "".
	sibling := children[0]
	for _, code := range empty {
		tupleCodes[last] = code
		vals := make([]string, k)
		for ai, a := range attrs {
			vals[ai] = c.Tuple[a]
		}
		vals[last] = dict[code]
		pred := make(map[agg.Func]float64, len(fits))
		for si, sm := range fits {
			pred[stats[si]] = sm.predict(sm.fs.Row(tupleCodes), sm.rowOf(sibling))
		}
		hr.Ranked = append(hr.Ranked, score(agg.Group{Vals: vals}, pred))
	}
	sort.SliceStable(hr.Ranked, func(a, b int) bool { return scoreLess(hr.Ranked[a].Score, hr.Ranked[b].Score) })
	if e.opts.TopK > 0 && len(hr.Ranked) > e.opts.TopK {
		hr.Ranked = hr.Ranked[:e.opts.TopK]
	}
	hr.BestScore = hr.Ranked[0].Score
	return hr, nil
}

// codeCond is an attribute = code condition on one group's window of a
// result's code table.
type codeCond struct {
	ai   int
	code uint32
}

func matchCodes(conds []codeCond, codes []uint32) bool {
	for _, c := range conds {
		if codes[c.ai] != c.code {
			return false
		}
	}
	return true
}

// statModel is one fitted base-statistic model: fitted values per observed
// group, plus a predictor for synthetic (empty-group) feature rows.
type statModel struct {
	fs    *feature.Set
	preds []float64
	// predict scores feature row x using the random effects of the cluster
	// containing model row sibRow.
	predict func(x []float64, sibRow int) float64
	// rowOf maps a group index to its model row.
	rowOf func(gi int) int
}

// fitModel returns the multi-level model of one base statistic over the
// drilled group-by, memoised under key, fitKey(groups.Attrs, groups.Measure,
// stat): the attribute list fixes the drilled hierarchy, its last
// attribute's, and every hierarchy's depth, so the factorizer and
// TrainerAuto's choice are functions of the key too. A fit is priced 0 and
// kept only while its γ is (memo.go).
func (e *Engine) fitModel(h data.Hierarchy, groups *agg.Result, stat agg.Func, depth map[string]int, key string) (*statModel, error) {
	return memoGet(e.memo, key, func() (*statModel, error) {
		return e.train(e.opts.Trainer, h, groups, stat, depth)
	}, func(*statModel) int { return e.memo.retainWith(key, groupsKey(groups.Attrs, groups.Measure)) })
}

// fitKey is a fit's memo key: its γ's attributes and measure, and the
// statistic.
func fitKey(attrs []string, measure string, stat agg.Func) string {
	return memoKey("fit", attrs, measure, string(stat))
}

// train fits the multi-level model of stat over groups with the given backend
// and the feature set the engine's options select.
func (e *Engine) train(kind TrainerKind, h data.Hierarchy, groups *agg.Result, stat agg.Func, depth map[string]int) (*statModel, error) {
	fs, err := feature.BuildWithGroupFeatures(groups, feature.Spec{
		Target:       stat,
		Aux:          e.opts.Aux,
		Custom:       e.opts.Custom,
		ExcludeFromZ: e.opts.ExcludeFromZ,
		KeepLeaky:    e.opts.KeepLeaky,
	}, e.opts.GroupFeatures)
	if err != nil {
		return nil, err
	}
	y := make([]float64, groups.Len())
	for gi, s := range groups.Stats {
		y[gi] = s.Get(stat)
	}
	if len(fs.Extra) > 0 {
		// This reproduction has no factorised form for multi-attribute
		// features (Appendix H): they train naively.
		kind = TrainerNaive
	}
	var fz *factor.Factorizer
	if kind == TrainerAuto || kind == TrainerFactorised || kind == TrainerNaiveFull {
		if fz, err = e.factorizer(h, depth, groups.Measure); err != nil {
			return nil, err
		}
		if kind == TrainerAuto {
			kind = TrainerFactorised
			if _, err := fz.RowCount(); err != nil || float64(groups.Len())/fz.N() < factorisedFillThreshold {
				kind = TrainerNaive
			}
		}
	}

	opts := mlm.Options{Iterations: e.opts.EMIterations}
	switch kind {
	case TrainerFactorised:
		return trainCross(fz, groups, fs, y, opts, e.opts.RandomEffects, false)
	case TrainerNaiveFull:
		return trainCross(fz, groups, fs, y, opts, e.opts.RandomEffects, true)
	}
	return trainNaive(groups, fs, y, opts, e.opts.RandomEffects)
}

// zMaskFor resolves the random-effects column mask: the feature-level mask
// restricted by the RandomEffects policy. typicalCluster is the average
// cluster size; ZAuto keeps only the intercept when it is under three rows
// per design column.
func zMaskFor(re RandomEffects, featMask []bool, typicalCluster float64) []bool {
	mask := append([]bool(nil), featMask...)
	interceptOnly := re == ZIntercept ||
		(re == ZAuto && typicalCluster < 3*float64(len(mask)))
	if interceptOnly {
		for i := range mask {
			mask[i] = i == 0 // the intercept is always the first column
		}
	}
	return mask
}

func allTrue(mask []bool) bool {
	for _, m := range mask {
		if !m {
			return false
		}
	}
	return true
}

// factorizer returns the factorised representation of the view drilled one
// level into h: every hierarchy at its current depth, the drilled hierarchy
// one level deeper and ordered last. It is memoised per drilled view and only
// read after construction, so the per-statistic fits share it. measure names
// the group-by a missing source is read from; the view does not depend on it.
func (e *Engine) factorizer(h data.Hierarchy, depth map[string]int, measure string) (*factor.Factorizer, error) {
	return memoGet(e.memo, memoKey("factorizer", e.drillAttrs(h, depth)), func() (*factor.Factorizer, error) {
		var sources []*factor.Source
		var depths []int
		for _, other := range e.ds.Hierarchies {
			if other.Name == h.Name {
				continue
			}
			d := depth[other.Name]
			if d == 0 {
				continue // hierarchy not part of the view
			}
			src, err := e.sourceFor(other, measure)
			if err != nil {
				return nil, err
			}
			sources = append(sources, src)
			depths = append(depths, d)
		}
		src, err := e.sourceFor(h, measure)
		if err != nil {
			return nil, err
		}
		sources = append(sources, src)
		depths = append(depths, depth[h.Name]+1)
		return factor.New(sources, depths)
	}, func(fz *factor.Factorizer) int {
		n := 0
		for pos := 0; pos < fz.NumHierarchies(); pos++ {
			n += fz.Chain(pos).Leaves()
		}
		return n
	})
}

// predictor builds the synthetic-row predictor: x·β + z·b_cluster with z the
// Z-masked subset of x.
func predictor(model *mlm.MultiLevel, zmask []bool) func(x []float64, sibRow int) float64 {
	return func(x []float64, sibRow int) float64 {
		cl := model.ClusterOf(sibRow)
		p := 0.0
		for j, v := range x {
			p += v * model.Beta[j]
		}
		zj := 0
		for j, keep := range zmask {
			if keep {
				p += x[j] * model.B[cl][zj]
				zj++
			}
		}
		return p
	}
}

func trainNaive(groups *agg.Result, fs *feature.Set, y []float64, opts mlm.Options, re RandomEffects) (*statModel, error) {
	x := fs.DenseX(groups)
	starts := feature.ClusterStarts(groups)
	backend, err := mlm.NewDense(x, starts)
	if err != nil {
		return nil, err
	}
	zmask := zMaskFor(re, fs.ZMask(), float64(groups.Len())/float64(len(starts)))
	bz, err := zBackend(backend, zmask)
	if err != nil {
		return nil, err
	}
	model, err := mlm.FitEMZ(backend, bz, y, opts)
	if err != nil {
		return nil, err
	}
	return &statModel{
		fs:      fs,
		preds:   model.Fitted(backend, bz),
		predict: predictor(model, zmask),
		rowOf:   func(gi int) int { return gi },
	}, nil
}

// zBackend derives the random-effects backend for a Z column mask: the full
// backend when Z = X, the closed-form intercept design when only the
// (constant-1) intercept column is kept, and a column subset otherwise.
func zBackend(backend mlm.Backend, zmask []bool) (mlm.Backend, error) {
	if allTrue(zmask) {
		return backend, nil
	}
	kept, only0 := 0, true
	for j, m := range zmask {
		if m {
			kept++
			if j != 0 {
				only0 = false
			}
		}
	}
	if kept == 1 && only0 {
		return mlm.NewInterceptZ(backend), nil
	}
	switch b := backend.(type) {
	case *mlm.Dense:
		return b.SubsetCols(zmask)
	case *mlm.Factorised:
		return b.SubsetCols(zmask)
	}
	return nil, fmt.Errorf("core: cannot subset backend %T", backend)
}

// trainCross trains over the complete cross product of hierarchy paths
// (empty cells carry y = 0, the §5.1.4 worst case). With materialize=false
// it uses the factorised backend; with materialize=true it expands the full
// feature matrix and trains densely — the Matlab comparator regime.
func trainCross(fz *factor.Factorizer, groups *agg.Result, fs *feature.Set, y []float64, opts mlm.Options, re RandomEffects, materialize bool) (*statModel, error) {
	cols, err := fs.FactorColumns(fz)
	if err != nil {
		return nil, err
	}
	fm, err := fmatrix.New(fz, cols)
	if err != nil {
		return nil, err
	}
	var backend mlm.Backend
	fb, err := mlm.NewFactorised(fm)
	if err != nil {
		return nil, err
	}
	backend = fb
	if materialize {
		x, err := fm.Materialize()
		if err != nil {
			return nil, err
		}
		starts := make([]int, fb.NumClusters())
		for i := range starts {
			starts[i], _ = fb.ClusterRows(i)
		}
		db, err := mlm.NewDense(x, starts)
		if err != nil {
			return nil, err
		}
		backend = db
	}
	zmask := zMaskFor(re, fs.ZMask(), float64(backend.NumRows())/float64(backend.NumClusters()))
	bz, err := zBackend(backend, zmask)
	if err != nil {
		return nil, err
	}
	// Dense y over the cross product: observed groups at their row index,
	// empty cells at 0 (the worst-case regime the paper trains in).
	rowOf, err := groupRowIndex(fz, groups)
	if err != nil {
		return nil, err
	}
	yd := make([]float64, backend.NumRows())
	for gi, row := range rowOf {
		yd[row] = y[gi]
	}
	model, err := mlm.FitEMZ(backend, bz, yd, opts)
	if err != nil {
		return nil, err
	}
	fitted := model.Fitted(backend, bz)
	out := make([]float64, len(rowOf))
	for gi, row := range rowOf {
		out[gi] = fitted[row]
	}
	return &statModel{
		fs:      fs,
		preds:   out,
		predict: predictor(model, zmask),
		rowOf:   func(gi int) int { return int(rowOf[gi]) },
	}, nil
}

// PredictGroupStats trains the engine's multi-level model over the given
// group-by attributes and returns each group's expected value of stat,
// together with the group-by result. It exposes the model-based expectation
// on its own, without complaint-driven ranking — the basis of the Outlier
// baseline (§5.2.3). It always trains naively, and the result, decoded, is
// the caller's own: nothing it returns is shared with the engine's memo.
func (e *Engine) PredictGroupStats(attrs []string, measure string, stat agg.Func) ([]float64, *agg.Result, error) {
	groups, err := e.src.PartialGroupBy(attrs, measure)
	if err != nil {
		return nil, nil, err
	}
	sm, err := e.train(TrainerNaive, data.Hierarchy{}, groups, stat, nil)
	if err != nil {
		return nil, nil, err
	}
	return sm.preds, groups.Decode(), nil
}

// groupRowIndex maps every observed group to its row in the factorised
// matrix's iteration order. The group-by codes against its sources'
// dictionaries, so a group's leaf is read off the deepest level's code →
// position table.
func groupRowIndex(fz *factor.Factorizer, groups *agg.Result) ([]int32, error) {
	// Per hierarchy position, the deepest attribute's index within
	// groups.Attrs and that level's code → leaf table.
	nh := fz.NumHierarchies()
	deepAttr, leafOf := make([]int, nh), make([][]int32, nh)
	for pos := 0; pos < nh; pos++ {
		ch := fz.Chain(pos)
		lv := ch.Levels[ch.Depth()-1]
		if deepAttr[pos] = slices.Index(groups.Attrs, lv.Attr); deepAttr[pos] < 0 {
			return nil, fmt.Errorf("core: factorizer attribute %q missing from group-by %v", lv.Attr, groups.Attrs)
		}
		if !data.SameDict(groups.Dicts[deepAttr[pos]], lv.Dict) {
			return nil, fmt.Errorf("core: group-by codes %q against a dictionary its factor source does not share", lv.Attr)
		}
		leafOf[pos] = lv.Index
	}
	rowOf := make([]int32, groups.Len())
	leaf := make([]int, nh)
	for gi := range rowOf {
		for pos, ai := range deepAttr {
			code := groups.Codes[gi*len(groups.Attrs)+ai]
			if leaf[pos] = int(leafOf[pos][code]); leaf[pos] < 0 {
				return nil, fmt.Errorf("core: value %q not in factorizer hierarchy %q", groups.Dicts[ai][code], fz.HierarchyName(pos))
			}
		}
		rowOf[gi] = int32(fz.RowIndexOf(leaf)) // NewFactorised caps rows at MaxInt32
	}
	return rowOf, nil
}
