package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

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
	// KeepLeaky disables the one-to-one main-effect guard (tests only).
	KeepLeaky bool
	// Workers bounds the fan-out at each level of a Recommend call:
	// candidate hierarchies run on a pool of at most Workers goroutines,
	// and within each hierarchy the per-statistic model fits do too.
	// 0 (the default) selects runtime.NumCPU(); 1 forces the sequential
	// path. Parallel evaluation is deterministic: it produces the same
	// recommendation as Workers == 1.
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
	// only, and shards and shardKey report the partitioning.
	src      ShardWorker
	shards   int
	shardKey string

	memo *memo
}

// NewEngine validates the dataset's hierarchy metadata and builds an engine.
func NewEngine(ds *data.Dataset, opts Options) (*Engine, error) {
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
// path set shares that one call. The paths are the one group-by the engine
// decodes whole.
func (e *Engine) sourceFor(h data.Hierarchy, measure string) (*factor.Source, error) {
	return memoGet(e.memo, fmt.Sprintf("source %q", h.Name), func() (*factor.Source, error) {
		groups, err := e.groups(nil, h.Attrs, measure)
		if err != nil {
			return nil, err
		}
		decoded := groups.Decode().Groups
		paths := make([][]string, len(decoded))
		for gi, g := range decoded {
			paths[gi] = g.Vals
		}
		return factor.NewSource(h.Name, h.Attrs, paths)
	}, func(src *factor.Source) int { return len(src.Paths) })
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
		d := s.depth[h.Name]
		present := make(map[string]bool)
		for _, a := range groupBy {
			present[a] = true
		}
		for l := 0; l < d; l++ {
			if !present[h.Attrs[l]] {
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
	snap := make(map[string]int, len(s.depth))
	for name, d := range s.depth {
		snap[name] = d
	}
	return evalState{depth: snap}
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
	if c.Measure == "" {
		return nil, fmt.Errorf("core: complaint needs a measure attribute")
	}
	// Every aggregate — COUNT included — is computed over a concrete measure
	// column, so an unknown measure is an error here rather than a panic
	// inside the aggregation pipeline.
	if !s.eng.ds.HasMeasure(c.Measure) {
		return nil, fmt.Errorf("core: unknown measure %q", c.Measure)
	}
	st := s.snapshot()
	st.rec = rec
	var cands []data.Hierarchy
	for _, h := range s.eng.ds.Hierarchies {
		if st.depth[h.Name] < len(h.Attrs) {
			cands = append(cands, h)
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("core: every hierarchy is fully drilled")
	}
	// Fan the candidate hierarchies out over the worker pool. Each slot is
	// independent (its own GroupBy granularity and models), so results land
	// at their candidate index and the ranking below stays byte-identical
	// to the sequential path.
	evaluated := make([]*HierarchyResult, len(cands))
	errs := make([]error, len(cands))
	s.eng.forEach(len(cands), func(i int) {
		evaluated[i], errs[i] = s.eng.evaluateHierarchy(cands[i], c, st)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: evaluating hierarchy %q: %w", cands[i].Name, err)
		}
	}
	results := make([]HierarchyResult, len(cands))
	for i, hr := range evaluated {
		results[i] = *hr
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

// forEach runs fn(0..n-1) on the engine's worker budget: inline when the
// budget is one worker (or there is one unit of work), otherwise over a
// bounded pool of min(Workers, n) goroutines. It backs both the Recommend
// fan-out (candidate hierarchies, per-statistic fits) and the shard
// scatter-gather. A panic inside a pool worker is re-raised on the calling
// goroutine, so callers' recover semantics match the sequential path.
func (e *Engine) forEach(n int, fn func(i int)) {
	workers := e.opts.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
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
	for i := 0; i < n; i++ {
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
// memoised per (attrs, measure). Over partitions the call is the
// scatter-gather, which rec, when non-nil, records as a "scatter" span.
func (e *Engine) groups(rec SpanRecorder, attrs []string, measure string) (*agg.Result, error) {
	return memoGet(e.memo, fmt.Sprintf("groups %q %q", attrs, measure), func() (*agg.Result, error) {
		if e.shards > 0 {
			defer startSpan(rec, "scatter")()
		}
		return e.src.PartialGroupBy(attrs, measure)
	}, (*agg.Result).Len)
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

func (e *Engine) evaluateHierarchy(h data.Hierarchy, c Complaint, st evalState) (*HierarchyResult, error) {
	attr := h.Attrs[st.depth[h.Name]]
	attrs := e.drillAttrs(h, st.depth)

	// Parallel groups: the whole dataset at the drilled granularity.
	endGroupBy := startSpan(st.rec, "groupby")
	groups, err := e.groups(st.rec, attrs, c.Measure)
	endGroupBy()
	if err != nil {
		return nil, err
	}

	// One model per required base statistic.
	endFit := startSpan(st.rec, "fit")
	models, err := e.fitModels(h, groups, c, st.depth)
	endFit()
	if err != nil {
		return nil, err
	}

	// The tuple as codes of the drilled relation, translated once: anc holds
	// the conditions on attributes of the drilled hierarchy, rest the others.
	// Attributes are visited in sorted order, so a tuple naming several outside
	// the drill-down always reports the same one.
	var anc, rest []codeCond
	for _, a := range slices.Sorted(maps.Keys(c.Tuple)) {
		ai := slices.Index(attrs, a)
		if ai < 0 {
			return nil, fmt.Errorf("complaint attribute %q not in drill-down", a)
		}
		// A value absent from the dictionary wraps to a code no group carries.
		cond := codeCond{ai, uint32(slices.Index(groups.Dicts[ai], c.Tuple[a]))}
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
	k, last := len(attrs), len(attrs)-1 // attr is the drilled order's last
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
	var emptyVals []string
	for code, s := range seen {
		if s == candidate {
			emptyVals = append(emptyVals, groups.Dicts[last][code])
		}
	}
	sort.Strings(emptyVals)

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
		pred := make(map[agg.Func]float64, len(models))
		for f, sm := range models {
			pred[f] = sm.preds[gi]
		}
		hr.Ranked = append(hr.Ranked, score(g, pred))
	}
	// Score the empty groups using model predictions for their feature rows,
	// with the random effects of the cluster containing their observed
	// siblings.
	sibling := children[0]
	for _, v := range emptyVals {
		vals := make(map[string]string, len(attrs))
		gvals := make([]string, len(attrs))
		for ai, a := range attrs {
			if a == attr {
				vals[a] = v
			} else {
				vals[a] = c.Tuple[a]
			}
			gvals[ai] = vals[a]
		}
		pred := make(map[agg.Func]float64, len(models))
		for f, sm := range models {
			pred[f] = sm.predict(sm.fs.Row(vals), sm.rowOf(sibling))
		}
		hr.Ranked = append(hr.Ranked, score(agg.Group{Vals: gvals}, pred))
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

// fitModels returns one multi-level model per required base statistic. The
// per-statistic fits are independent, so they run on the worker pool too.
func (e *Engine) fitModels(h data.Hierarchy, groups *agg.Result, c Complaint, depth map[string]int) (map[agg.Func]*statModel, error) {
	stats := c.baseStats()
	fitted := make([]*statModel, len(stats))
	errs := make([]error, len(stats))
	e.forEach(len(stats), func(i int) {
		fitted[i], errs[i] = e.fitModel(h, groups, stats[i], depth)
	})
	models := make(map[agg.Func]*statModel, len(stats))
	for i, stat := range stats {
		if errs[i] != nil {
			return nil, errs[i]
		}
		models[stat] = fitted[i]
	}
	return models, nil
}

// fitModel fits the multi-level model of one base statistic over the drilled
// group-by. It is a function of (attrs, measure, statistic) and the engine's
// options, but is fitted per call, not memoised (see memo.go).
func (e *Engine) fitModel(h data.Hierarchy, groups *agg.Result, stat agg.Func, depth map[string]int) (*statModel, error) {
	fs, y, err := e.fitInputs(groups, stat)
	if err != nil {
		return nil, err
	}
	return e.trainAndPredict(h, groups, fs, y, depth)
}

// fitInputs builds what every fit starts from: the feature set the engine's
// options select for the target statistic, and the statistic per group.
func (e *Engine) fitInputs(groups *agg.Result, stat agg.Func) (*feature.Set, []float64, error) {
	fs, err := feature.BuildWithGroupFeatures(groups, feature.Spec{
		Target:       stat,
		Aux:          e.opts.Aux,
		Custom:       e.opts.Custom,
		ExcludeFromZ: e.opts.ExcludeFromZ,
		KeepLeaky:    e.opts.KeepLeaky,
	}, e.opts.GroupFeatures)
	if err != nil {
		return nil, nil, err
	}
	y := make([]float64, groups.Len())
	for gi, s := range groups.Stats {
		y[gi] = s.Get(stat)
	}
	return fs, y, nil
}

// trainAndPredict fits the multi-level model with the configured backend and
// returns the fitted statistic model.
func (e *Engine) trainAndPredict(h data.Hierarchy, groups *agg.Result, fs *feature.Set, y []float64, depth map[string]int) (*statModel, error) {
	kind := e.opts.Trainer
	if len(fs.Extra) > 0 {
		// This reproduction has no factorised form for multi-attribute
		// features (Appendix H): they train naively.
		kind = TrainerNaive
	}
	var fz *factor.Factorizer
	if kind == TrainerAuto || kind == TrainerFactorised || kind == TrainerNaiveFull {
		var err error
		fz, err = e.factorizer(h, depth, groups.Measure)
		if err != nil {
			return nil, err
		}
		if kind == TrainerAuto {
			if _, err := fz.RowCount(); err != nil {
				kind = TrainerNaive
			} else if float64(groups.Len())/fz.N() < factorisedFillThreshold {
				kind = TrainerNaive
			} else {
				kind = TrainerFactorised
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
	key := fmt.Sprintf("factorizer %q", e.drillAttrs(h, depth))
	return memoGet(e.memo, key, func() (*factor.Factorizer, error) {
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
		rowOf:   func(gi int) int { return rowOf[gi] },
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
	fs, y, err := e.fitInputs(groups, stat)
	if err != nil {
		return nil, nil, err
	}
	sm, err := trainNaive(groups, fs, y, mlm.Options{Iterations: e.opts.EMIterations}, e.opts.RandomEffects)
	if err != nil {
		return nil, nil, err
	}
	return sm.preds, groups.Decode(), nil
}

// groupRowIndex maps every observed group to its row in the factorised
// matrix's iteration order.
func groupRowIndex(fz *factor.Factorizer, groups *agg.Result) ([]int, error) {
	// Per hierarchy-order position, the deepest attribute's index within
	// groups.Attrs.
	nh := fz.NumHierarchies()
	deepAttr := make([]int, nh)
	for pos := 0; pos < nh; pos++ {
		ch := fz.Chain(pos)
		name := ch.Levels[ch.Depth()-1].Attr
		if deepAttr[pos] = slices.Index(groups.Attrs, name); deepAttr[pos] < 0 {
			return nil, fmt.Errorf("core: factorizer attribute %q missing from group-by %v", name, groups.Attrs)
		}
	}
	// One LeafIndex look-up per dictionary code (-1: not in the factorizer).
	leafOf := make([][]int, nh)
	for pos, ai := range deepAttr {
		leafOf[pos] = make([]int, len(groups.Dicts[ai]))
		for code, v := range groups.Dicts[ai] {
			leafOf[pos][code] = fz.LeafIndex(pos, v)
		}
	}
	rowOf := make([]int, groups.Len())
	leaf := make([]int, nh)
	for gi := range rowOf {
		for pos, ai := range deepAttr {
			code := groups.Codes[gi*len(groups.Attrs)+ai]
			if leaf[pos] = leafOf[pos][code]; leaf[pos] < 0 {
				return nil, fmt.Errorf("core: value %q not in factorizer hierarchy %q", groups.Dicts[ai][code], fz.HierarchyName(pos))
			}
		}
		rowOf[gi] = fz.RowIndexOf(leaf)
	}
	return rowOf, nil
}
