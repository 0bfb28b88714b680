package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// A workload's script is generated from the seed before anything is timed and
// has a fixed composition: the seed decides which tuples are complained
// about, in which order sessions run and which direction a complaint takes,
// but never how many requests land on which drill state with which aggregate.
// Work per measured second is therefore a property of the program, not of
// the seed, and runs with different seeds are comparable.

// state is a drill state: the group-by depth per hierarchy, in hierarchySpec
// order (geo, time, prod).
type state [3]int

var (
	hierarchyNames = [3]string{"geo", "time", "prod"}
	hierarchyAttrs = [3][]string{{"region", "district", "village"}, {"year", "month"}, {"category", "item"}}
	// attrDim maps an attribute to its column in dimNames order.
	attrDim = func() map[string]int {
		m := make(map[string]int, len(dimNames))
		for i, d := range dimNames {
			m[d] = i
		}
		return m
	}()
)

// rootState is where every interactive session starts: region, year,
// category.
var rootState = state{1, 1, 1}

// groupBy lists the state's attributes in canonical order.
func (st state) groupBy() []string {
	var out []string
	for h, d := range st {
		out = append(out, hierarchyAttrs[h][:d]...)
	}
	return out
}

// drilled returns the state one level deeper in hierarchy h.
func (st state) drilled(h int) state {
	st[h]++
	return st
}

func (st state) String() string { return fmt.Sprintf("%d%d%d", st[0], st[1], st[2]) }

// complaint renders a complaint about the group of st that row r falls in,
// in the compact notation ParseComplaint reads. Sampling the tuple from a
// row of the dataset guarantees it has provenance.
func (g *genData) complaint(st state, r row, agg, measure, dir string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "agg=%s measure=%s dir=%s", agg, measure, dir)
	dims := g.dims(r)
	for _, a := range st.groupBy() {
		fmt.Fprintf(&b, " %s=%s", a, dims[attrDim[a]])
	}
	return b.String()
}

// randomComplaint samples the tuple, measure and direction; the aggregate is
// the caller's, because it decides how many models a recommend fits.
func (g *genData) randomComplaint(rng *rand.Rand, st state, agg string) string {
	r := g.base[rng.Intn(len(g.base))]
	measure := measureNames[0]
	if rng.Intn(4) == 0 {
		measure = measureNames[1]
	}
	dir := "high"
	if rng.Intn(2) == 0 {
		dir = "low"
	}
	return g.complaint(st, r, agg, measure, dir)
}

// planStep is one complaint of a session and the drill the analyst accepts
// after reading the answer ("" = none).
type planStep struct {
	Complaint string
	Drill     string
}

// sessionPlan is one scripted drill-down session.
type sessionPlan struct {
	GroupBy []string
	Steps   []planStep
}

// templateStep is a planStep before tuples are sampled: the aggregate and
// the hierarchy index drilled afterwards (-1 = none).
type templateStep struct {
	agg   string
	drill int
}

// sessionBlock is the fixed composition every user repeats: twelve sessions
// and 60 complaints — 45 at the root state (75 %), 6 one drill deep (10 %),
// 9 two drills deep (15 %). No session has more than six complaints or two
// drills.
//
// The shares decide where the percentiles fall, and a percentile is only
// steady inside a dense group of like requests: the median request is a
// two-model complaint at the root state (two thirds of the way through the
// root group, whose upper half they are), and the 90th percentile is a
// single-model complaint two drills deep (a third of the way into that
// group). With the root share at 65 % the median sat in the root group's
// thin upper tail and moved by 13 % between runs. All two-drill paths end at
// {1,2,2}; one-drill states are visited in equal shares; at every depth
// single-model (mean, count) and two-model (std, sum) complaints are
// balanced.
var sessionBlock = [][]templateStep{
	{{"mean", -1}, {"std", -1}, {"sum", -1}, {"count", -1}, {"mean", -1}, {"std", -1}},
	{{"std", -1}, {"sum", -1}, {"count", -1}, {"mean", -1}, {"std", -1}, {"sum", -1}},
	{{"sum", -1}, {"count", -1}, {"mean", -1}, {"std", -1}, {"sum", -1}, {"count", -1}},
	{{"count", -1}, {"mean", -1}, {"std", -1}, {"sum", -1}, {"count", -1}, {"mean", -1}},
	{{"mean", -1}, {"std", -1}, {"sum", -1}, {"count", -1}, {"mean", -1}, {"std", -1}},
	{{"sum", -1}, {"count", -1}, {"mean", -1}, {"std", -1}, {"sum", -1}, {"count", -1}},
	{{"sum", -1}, {"mean", 0}, {"std", -1}},
	{{"count", -1}, {"std", 1}, {"mean", -1}},
	{{"mean", -1}, {"sum", 2}, {"count", -1}},
	{{"std", 1}, {"mean", 2}, {"mean", -1}, {"std", -1}, {"count", -1}},
	{{"count", 2}, {"sum", 1}, {"sum", -1}, {"mean", -1}, {"count", -1}},
	{{"mean", 1}, {"std", 2}, {"std", -1}, {"count", -1}, {"sum", -1}},
}

// userScript generates blocks of session plans for one closed-loop user:
// every block holds sessionBlock's sessions in a seeded order with seeded
// tuples.
func (g *genData) userScript(seed int64, user, blocks int) []sessionPlan {
	rng := rand.New(rand.NewSource(seed*1009 + int64(user)*7919 + 1))
	var out []sessionPlan
	for b := 0; b < blocks; b++ {
		for _, ti := range rng.Perm(len(sessionBlock)) {
			st := rootState
			plan := sessionPlan{GroupBy: st.groupBy()}
			for _, ts := range sessionBlock[ti] {
				step := planStep{Complaint: g.randomComplaint(rng, st, ts.agg)}
				if ts.drill >= 0 {
					step.Drill = hierarchyNames[ts.drill]
					st = st.drilled(ts.drill)
				}
				plan.Steps = append(plan.Steps, step)
			}
			out = append(out, plan)
		}
	}
	return out
}

// probe is one (drill state, complaint) pair of an answer check.
type probe struct {
	State     state
	Complaint string
}

// aggCycle is the order fixed-composition scripts rotate aggregates in.
var aggCycle = []string{"mean", "std", "sum", "count"}

// probes returns n seeded probes cycling over states and aggregates. The
// stream is independent of the load scripts (its own source), so changing a
// script never changes a workload's answers digest.
func (g *genData) probes(seed int64, states []state, n int) []probe {
	rng := rand.New(rand.NewSource(seed*2003 + 17))
	out := make([]probe, n)
	for i := range out {
		st := states[i%len(states)]
		out[i] = probe{State: st, Complaint: g.randomComplaint(rng, st, aggCycle[(i/len(states))%len(aggCycle)])}
	}
	return out
}

// leafStates are the drill states with exactly one hierarchy one level short
// of its leaves: a recommend there evaluates a single candidate over every
// present leaf combination.
var leafStates = []state{{2, 2, 2}, {3, 1, 2}, {3, 2, 1}}

// coldRound is one round of the cold-session workload: the same two
// complaints and the same drill for each on-disk form.
type coldRound struct {
	Complaint1 string
	Drill      string
	Complaint2 string
}

// coldRounds scripts n rounds. The drill and both aggregates rotate through
// a fixed 12-round cycle; only tuples are seeded. The drill is scripted, not
// taken from the first answer, so every round of every seed costs the same
// work (the first answer still decides nothing the script depends on).
func (g *genData) coldRounds(seed int64, n int) []coldRound {
	rng := rand.New(rand.NewSource(seed*3001 + 29))
	out := make([]coldRound, n)
	for i := range out {
		h := i % 3
		out[i] = coldRound{
			Complaint1: g.randomComplaint(rng, rootState, aggCycle[(i/3)%4]),
			Drill:      hierarchyNames[h],
			Complaint2: g.randomComplaint(rng, rootState.drilled(h), aggCycle[(i/3+1)%4]),
		}
	}
	return out
}

// appendBatches cuts the reserve rows into CSV bodies of rowsPerBatch rows,
// each with its header — the payload of one POST .../append.
func (g *genData) appendBatches(rowsPerBatch int) []string {
	var out []string
	for lo := 0; lo+rowsPerBatch <= len(g.reserve); lo += rowsPerBatch {
		out = append(out, string(g.csv(g.reserve[lo:lo+rowsPerBatch])))
	}
	return out
}
