package experiments

import (
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/datasets"
)

// Fig10Row is one end-to-end measurement: a dataset processed by one
// trainer backend across the full drill sequence.
type Fig10Row struct {
	Dataset     string
	Backend     string
	Invocations int
	Total       time.Duration
}

// runEndToEnd drives a full §5.1.4 session: starting from the overall COUNT
// complaint, it invokes Reptile once per drill step, always drilling the
// scripted hierarchy and extending the complaint tuple with the top group's
// value.
func runEndToEnd(ds *data.Dataset, measure string, drillOrder []string, trainer core.TrainerKind, emIters int) (int, time.Duration) {
	// A fresh engine per timed run: an engine memoises group-bys and
	// factorizers, and this walk visits each drill state once, so every timed
	// step below is cold.
	sess, err := timingEngine(ds, trainer, emIters).NewSession(nil)
	if err != nil {
		panic(err)
	}
	tuple := data.Predicate{}
	start := time.Now()
	invocations := 0
	for _, hier := range drillOrder {
		rec, err := sess.Recommend(core.Complaint{
			Agg:       agg.Count,
			Measure:   measure,
			Tuple:     tuple,
			Direction: core.TooHigh,
		})
		if err != nil {
			panic(err)
		}
		invocations++
		// Follow the scripted hierarchy (the paper picks the sequence
		// arbitrarily since only runtime is studied) and filter to the top
		// group of that hierarchy.
		var hr *core.HierarchyResult
		for i := range rec.All {
			if rec.All[i].Hierarchy == hier {
				hr = &rec.All[i]
			}
		}
		if hr == nil {
			panic("experiments: scripted hierarchy " + hier + " not evaluated")
		}
		if err := sess.Drill(hier); err != nil {
			panic(err)
		}
		// Extend the complaint tuple with the top group's value for the new
		// attribute so the next invocation drills into it.
		top := hr.Ranked[0]
		idx := len(top.Group.Vals) - 1 // drilled attribute is last
		tuple[hr.Attr] = top.Group.Vals[idx]
	}
	return invocations, time.Since(start)
}

// timingEngine builds the engine of a timing experiment. Unless a pool size
// is requested explicitly, it is pinned to the sequential path, so reported
// runtimes reproduce the paper's single-threaded regime and don't vary with
// the host's core count.
func timingEngine(ds *data.Dataset, trainer core.TrainerKind, emIters int) *core.Engine {
	workers := Workers
	if workers == 0 {
		workers = 1
	}
	eng, err := core.NewEngine(ds, core.Options{EMIterations: emIters, Trainer: trainer, TopK: 5, Workers: workers})
	if err != nil {
		panic(err)
	}
	return eng
}

// Fig10 measures end-to-end runtimes on the Absentee and COMPAS datasets,
// comparing the factorised engine against the Matlab-style dense trainer.
// rowScale scales the dataset sizes (1.0 = the paper's row counts).
func Fig10(rowScale float64, emIters int, seed int64) ([]Fig10Row, *Table) {
	if rowScale <= 0 {
		rowScale = 1
	}
	if emIters <= 0 {
		emIters = 20
	}
	absRows := int(179_000 * rowScale)
	compasRows := int(60_843 * rowScale)

	type cfg struct {
		name    string
		ds      *data.Dataset
		measure string
		order   []string
	}
	cfgs := []cfg{
		{"Absentee", datasets.GenerateAbsentee(seed, absRows), "one", datasets.AbsenteeDrillOrder},
		{"COMPAS", datasets.GenerateCompas(seed, compasRows), "score", datasets.CompasDrillOrder},
	}
	var rows []Fig10Row
	for _, c := range cfgs {
		for _, backend := range []struct {
			name string
			kind core.TrainerKind
		}{
			{"Reptile (factorised)", core.TrainerFactorised},
			{"Matlab-style (full materialized matrix)", core.TrainerNaiveFull},
		} {
			inv, total := runEndToEnd(c.ds, c.measure, c.order, backend.kind, emIters)
			rows = append(rows, Fig10Row{Dataset: c.name, Backend: backend.name, Invocations: inv, Total: total})
		}
	}
	t := &Table{
		Title:  "Figure 10: end-to-end runtime on real-world-shaped datasets",
		Header: []string{"dataset", "backend", "invocations", "total"},
	}
	for _, r := range rows {
		t.Add(r.Dataset, r.Backend, r.Invocations, r.Total)
	}
	// Speedup rows.
	for i := 0; i+1 < len(rows); i += 2 {
		t.Add(rows[i].Dataset, "speedup", "", ratio(rows[i+1].Total, rows[i].Total))
	}
	return rows, t
}
