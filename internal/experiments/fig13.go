package experiments

import (
	"fmt"
	"time"

	"repro/internal/agg"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/datasets"
	"repro/internal/feature"
)

// Fig13Result is the outcome of one COVID issue for every method.
type Fig13Result struct {
	Issue    datasets.Issue
	Reptile  bool
	Sens     bool
	Support  bool
	RepTime  time.Duration
	SensTime time.Duration
	SupTime  time.Duration
}

// covidEngine builds the engine configuration used throughout the case
// study: 1-day and 7-day lag features for trend and weekly seasonality
// (Appendix L).
func covidEngine(ds *data.Dataset) (*core.Engine, error) {
	return core.NewEngine(ds, core.Options{
		EMIterations: 10,
		Trainer:      core.TrainerNaive,
		Workers:      Workers,
		// Random intercepts only (§3.3.4): with full Z = X, a corrupted lag
		// feature makes the erroneous group a high-leverage point that the
		// per-day random effects would fit — masking the very anomaly.
		RandomEffects: core.ZIntercept,
		GroupFeatures: []feature.GroupFeature{
			feature.LagFeature("day", 1),
			feature.LagFeature("day", 7),
		},
	})
}

// covidComplaint is the §5.3 protocol: filter to the issue day and complain
// about the parent-level total.
func covidComplaint(issue datasets.Issue, tuple data.Predicate) core.Complaint {
	return core.Complaint{
		Agg:       agg.Sum,
		Measure:   issue.Measure,
		Tuple:     tuple,
		Direction: issue.Direction,
	}
}

// runCovidIssue applies the issue to the base dataset and runs every method
// through the drill-down protocol (one step for US, region → country for
// global). A method succeeds when its top recommendation is the erroneous
// location at every step.
func runCovidIssue(base *data.Dataset, issue datasets.Issue) Fig13Result {
	ds := issue.Apply(base)
	res := Fig13Result{Issue: issue}

	type step struct {
		groupBy []string
		tuple   data.Predicate
		attr    string
		want    string
	}
	var steps []step
	if issue.Dataset == "us" {
		steps = []step{{
			groupBy: []string{"day"},
			tuple:   data.Predicate{"day": issue.DayName()},
			attr:    "state",
			want:    issue.Location,
		}}
	} else {
		steps = []step{
			{
				groupBy: []string{"day"},
				tuple:   data.Predicate{"day": issue.DayName()},
				attr:    "region",
				want:    issue.Region,
			},
			{
				groupBy: []string{"region", "day"},
				tuple:   data.Predicate{"day": issue.DayName(), "region": issue.Region},
				attr:    "country",
				want:    issue.Location,
			},
		}
	}

	// A fresh engine per issue, and every step groups differently: the timed
	// loop below never hits the engine's memo.
	eng, err := covidEngine(ds)
	if err != nil {
		panic(err)
	}

	// Reptile.
	start := time.Now()
	repOK := true
	for _, st := range steps {
		sess, err := eng.NewSession(st.groupBy)
		if err != nil {
			panic(err)
		}
		rec, err := sess.Recommend(covidComplaint(issue, st.tuple))
		if err != nil {
			panic(err)
		}
		top := rec.Best.Ranked[0]
		got, _ := top.Group.Value(attrsOfRec(rec), st.attr)
		if rec.Best.Attr != st.attr || got != st.want {
			repOK = false
			break
		}
	}
	res.RepTime = time.Since(start)
	res.Reptile = repOK

	// Baselines walk the same steps over the raw group statistics.
	runBaseline := func(rank func(children []agg.Group, c core.Complaint) []int) (bool, time.Duration) {
		start := time.Now()
		for _, st := range steps {
			attrs := append(append([]string(nil), st.groupBy...), st.attr)
			// Canonicalize: groups keyed by attrs with the drill attr last.
			groups := agg.GroupBy(ds, attrs, issue.Measure)
			var children []agg.Group
			for _, g := range groups.Groups {
				ok := true
				for a, want := range st.tuple {
					if v, _ := g.Value(attrs, a); v != want {
						ok = false
						break
					}
				}
				if ok {
					children = append(children, g)
				}
			}
			order := rank(children, covidComplaint(issue, st.tuple))
			got, _ := children[order[0]].Value(attrs, st.attr)
			if got != st.want {
				return false, time.Since(start)
			}
		}
		return true, time.Since(start)
	}
	res.Sens, res.SensTime = runBaseline(baselines.Sensitivity)
	res.Support, res.SupTime = runBaseline(func(ch []agg.Group, _ core.Complaint) []int {
		return baselines.Support(ch)
	})
	return res
}

// attrsOfRec reconstructs the group-by attribute list of a recommendation's
// ranked groups (the drilled attribute is last).
func attrsOfRec(rec *core.Recommendation) []string {
	// GroupScore carries Vals aligned with the drill-down attrs; the engine
	// sorts the drilled hierarchy last, so the attr list is recoverable from
	// the best hierarchy evaluation. We reconstruct it from the ranked
	// group's arity via the session conventions in runCovidIssue.
	switch len(rec.Best.Ranked[0].Group.Vals) {
	case 2:
		return []string{"day", rec.Best.Attr}
	case 3:
		return []string{"day", "region", rec.Best.Attr}
	}
	panic("experiments: unexpected group arity")
}

// Fig13 runs all 30 issues of Tables 1–2 and aggregates accuracy and
// average runtime per method (Figure 13).
func Fig13(seed int64) ([]Fig13Result, *Table, *Table, *Table) {
	usBase := datasets.GenerateCovidUS(seed)
	glBase := datasets.GenerateCovidGlobal(seed)
	var results []Fig13Result
	for _, issue := range datasets.USIssues() {
		results = append(results, runCovidIssue(usBase, issue))
	}
	for _, issue := range datasets.GlobalIssues() {
		results = append(results, runCovidIssue(glBase, issue))
	}

	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return ""
	}
	t1 := &Table{Title: "Table 1: COVID-19 issues (US)", Header: []string{"ID", "Issue", "Reptile", "Sensitivity", "Support"}}
	t2 := &Table{Title: "Table 2: COVID-19 issues (global)", Header: []string{"ID", "Issue", "Reptile", "Sensitivity", "Support"}}
	var repHits, sensHits, supHits int
	var repTime, sensTime, supTime time.Duration
	for _, r := range results {
		target := t1
		if r.Issue.Dataset == "global" {
			target = t2
		}
		target.Add(r.Issue.ID, r.Issue.Title, mark(r.Reptile), mark(r.Sens), mark(r.Support))
		if r.Reptile {
			repHits++
		}
		if r.Sens {
			sensHits++
		}
		if r.Support {
			supHits++
		}
		repTime += r.RepTime
		sensTime += r.SensTime
		supTime += r.SupTime
	}
	n := len(results)
	t := &Table{
		Title:  "Figure 13: COVID-19 case study (accuracy of top result, avg runtime)",
		Header: []string{"method", "correct rate", "avg time"},
	}
	t.Add("Reptile", fmt.Sprintf("%d/%d (%.1f%%)", repHits, n, 100*float64(repHits)/float64(n)), repTime/time.Duration(n))
	t.Add("Sensitivity", fmt.Sprintf("%d/%d (%.1f%%)", sensHits, n, 100*float64(sensHits)/float64(n)), sensTime/time.Duration(n))
	t.Add("Support", fmt.Sprintf("%d/%d (%.1f%%)", supHits, n, 100*float64(supHits)/float64(n)), supTime/time.Duration(n))
	return results, t, t1, t2
}
