package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/data"
)

// Fig9Row is one measurement of the §4.4 drill-down optimization comparison
// (Figure 9): the total cost of three scripted Reptile invocations, each
// evaluating both candidate hierarchies, under one engine configuration.
type Fig9Row struct {
	PreDrilledB int
	Mode        string
	Total       time.Duration
}

// fig9Modes are the engine configurations Figure 9 times, in table order:
//   - Static: a fresh core.Engine per candidate hierarchy, so every candidate
//     recomputes every aggregate it reads;
//   - Dynamic: a fresh engine per invocation, so the candidates of one
//     invocation share hierarchy paths, group-bys and factorizers;
//   - Cache+Dynamic: one engine for the whole session, whose memo is the
//     §4.4 cache: what one invocation built, the next reads.
var fig9Modes = []string{"Static", "Dynamic", "Cache+Dynamic"}

// Fig9 reproduces the drill-down optimization experiment on the engine that
// serves recommendations: two hierarchies A and B of six attributes each, at
// about leafCount leaves; A starts at depth 3 and is drilled three times; B
// is pre-drilled to n attributes. Each invocation recommends for a COUNT
// complaint, then drills A into the top group A's evaluation ranks. Every
// configuration must return byte-identical recommendation JSON at every
// invocation; Fig9 panics otherwise.
func Fig9(leafCount int) ([]Fig9Row, *Table) {
	if leafCount <= 0 {
		leafCount = 30000
	}
	ds := fig9Dataset(leafCount)
	var rows []Fig9Row
	for _, n := range []int{3, 4, 5} {
		var want []byte
		for _, mode := range fig9Modes {
			recs, total := fig9Run(ds, n, mode)
			got, err := json.Marshal(recs)
			if err != nil {
				panic(err)
			}
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				panic(fmt.Sprintf("fig9: n=%d: %s recommends\n%s\nwhere %s recommends\n%s", n, mode, got, fig9Modes[0], want))
			}
			rows = append(rows, Fig9Row{PreDrilledB: n, Mode: mode, Total: total})
		}
	}
	t := &Table{
		Title:  "Figure 9: drill-down optimization, engine configurations (3 invocations drilling A, B pre-drilled to n)",
		Header: []string{"n (B depth)", "mode", "total"},
	}
	for _, r := range rows {
		t.Add(r.PreDrilledB, r.Mode, r.Total)
	}
	return rows, t
}

// fig9Dataset builds Figure 9's data: hierarchies A and B of six attributes,
// each chainPaths' balanced tree of about leafCount leaves, and a row per
// leaf of A, paired with a leaf of B by a fixed stride, plus a second row for
// the first quarter of A's leaves, so the COUNT complaint has groups to tell
// apart. Rows walk each hierarchy's paths in lexicographic order. Its FDs are
// verified here, before any timing.
func fig9Dataset(leafCount int) *data.Dataset {
	aAttrs, a := chainPaths("A", 6, leafCount)
	bAttrs, b := chainPaths("B", 6, leafCount)
	slices.SortFunc(a, slices.Compare)
	slices.SortFunc(b, slices.Compare)
	ds := data.New("fig9", slices.Concat(aAttrs, bAttrs), []string{"m"},
		[]data.Hierarchy{{Name: "A", Attrs: aAttrs}, {Name: "B", Attrs: bAttrs}})
	for i := range len(a) * 5 / 4 {
		ds.AppendRowVals(slices.Concat(a[i%len(a)], b[7*i%len(b)]), []float64{float64(i % 10)})
	}
	if err := ds.Validate(); err != nil {
		panic(err)
	}
	return ds
}

// fig9Run walks Figure 9's script under one configuration and returns each
// invocation's recommendation and the time the walk took.
//
// Static's "fresh engine per candidate" is realised without an engine option:
// candidate h is evaluated by a fresh engine over a copy of the dataset in
// which every other hierarchy is cut to its current depth, so h is the one
// hierarchy that copy's Recommend drills. A cut hierarchy contributes the
// same attributes, paths and chain to h's drilled view as the whole one, so
// the evaluation is the one a single engine makes. One cost differs: an engine
// reads a hierarchy's paths at its full depth, and a cut hierarchy's only to
// the cut, so Static reads fewer paths of the hierarchies it does not drill.
// The copies are made and their FDs verified before the clock starts.
func fig9Run(ds *data.Dataset, n int, mode string) ([]*core.Recommendation, time.Duration) {
	var states []map[string]int
	var views [][]*data.Dataset // Static's, per invocation and candidate
	for depthA := 3; depthA < 6; depthA++ {
		st := map[string]int{"A": depthA, "B": n}
		states = append(states, st)
		if mode == "Static" {
			var v []*data.Dataset
			for _, h := range ds.Hierarchies {
				v = append(v, cutView(ds, h.Name, st))
			}
			views = append(views, v)
		}
	}
	var recs []*core.Recommendation
	tuple := data.Predicate{}
	total := timeIt(func() {
		var eng *core.Engine
		for inv, st := range states {
			c := core.Complaint{Agg: agg.Count, Measure: "m", Tuple: tuple, Direction: core.TooHigh}
			var rec *core.Recommendation
			switch {
			case mode == "Static":
				rec = perCandidate(views[inv], st, c)
			case mode == "Dynamic" || eng == nil:
				eng = timingEngine(ds, core.TrainerAuto, 5)
				fallthrough
			default:
				rec = fig9Recommend(eng, st, c)
			}
			recs = append(recs, rec)
			// Drill A: extend the complaint with the top group's value for
			// A's new attribute, the drilled order's last.
			hr := rec.All[slices.IndexFunc(rec.All, func(hr core.HierarchyResult) bool { return hr.Hierarchy == "A" })]
			vals := hr.Ranked[0].Group.Vals
			tuple[hr.Attr] = vals[len(vals)-1]
		}
	})
	return recs, total
}

// cutView copies ds with every hierarchy but cand cut to its depth in st and
// verifies the copy's FDs.
func cutView(ds *data.Dataset, cand string, st map[string]int) *data.Dataset {
	v := ds.Clone()
	v.Hierarchies = slices.Clone(ds.Hierarchies)
	for i, h := range v.Hierarchies {
		if h.Name != cand {
			v.Hierarchies[i].Attrs = h.Attrs[:st[h.Name]]
		}
	}
	if err := v.Validate(); err != nil {
		panic(err)
	}
	return v
}

// perCandidate is a Static invocation: one fresh engine per candidate's view,
// whose results are reassembled in hierarchy order with the best picked as
// core.Session.Recommend picks it (lowest score, NaN last, first on ties).
func perCandidate(views []*data.Dataset, st map[string]int, c core.Complaint) *core.Recommendation {
	rec := &core.Recommendation{}
	for _, v := range views {
		rec.All = append(rec.All, fig9Recommend(timingEngine(v, core.TrainerAuto, 5), st, c).All...)
	}
	rec.Best = &rec.All[0]
	for i := range rec.All {
		if s, best := rec.All[i].BestScore, rec.Best.BestScore; s < best || math.IsNaN(best) && !math.IsNaN(s) {
			rec.Best = &rec.All[i]
		}
	}
	return rec
}

// fig9Recommend opens a session on eng at the drill state st (depth per
// hierarchy) and recommends for c.
func fig9Recommend(eng *core.Engine, st map[string]int, c core.Complaint) *core.Recommendation {
	var groupBy []string
	for _, h := range eng.Dataset().Hierarchies {
		groupBy = append(groupBy, h.Attrs[:st[h.Name]]...)
	}
	sess, err := eng.NewSession(groupBy)
	if err != nil {
		panic(err)
	}
	rec, err := sess.Recommend(c)
	if err != nil {
		panic(err)
	}
	return rec
}
