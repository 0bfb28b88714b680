package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
)

// worse returns by how large a share of base the new value is worse, given
// the metric's direction; negative when it is better.
func worse(m metricSpec, base, next float64) float64 {
	d := (next - base) / base
	if m.Better == "higher" {
		return -d
	}
	return d
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &rf, nil
}

// untraced returns the file's untraced run of a workload.
func (rf *resultsFile) untraced(workload string) *result {
	for _, r := range rf.Runs {
		if r.Workload == workload && r.Trace == 0 {
			return r
		}
	}
	return nil
}

// errorRate is failed ÷ attempted operations.
func (r *result) errorRate() float64 { return float64(r.Failed) / float64(r.Attempted) }

// compareCmd prints, per workload and end-to-end metric, base, new, the
// relative change and the bound BENCHMARK.json fixes, and fails on any
// regression beyond its bound or any rise in the error rate.
func compareCmd(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: benchmark compare <base.json> <new.json>")
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	base, err := readResults(args[0])
	if err != nil {
		return err
	}
	next, err := readResults(args[1])
	if err != nil {
		return err
	}
	regressions := 0
	fmt.Printf("%-18s %-14s %14s %14s %8s %6s  %s\n", "workload", "metric", "base", "new", "change", "bound", "verdict")
	for _, w := range spec.workloadNames() {
		b, n := base.untraced(w), next.untraced(w)
		if b == nil || n == nil {
			missing := args[1]
			if b == nil {
				missing = args[0]
			}
			fmt.Printf("%-18s missing from %s\n", w, missing)
			regressions++
			continue
		}
		for _, m := range spec.EndToEnd {
			bv, nv := b.Metrics[m.Name].Value, n.Metrics[m.Name].Value
			wr := worse(m, bv, nv)
			verdict := "within bound"
			switch {
			case wr > m.Bound:
				verdict = "regressed"
				regressions++
			case wr < -m.Bound:
				verdict = "improved"
			}
			fmt.Printf("%-18s %-14s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n", w, m.Name, bv, nv, 100*(nv-bv)/bv, 100*m.Bound, verdict)
		}
		verdict := "within bound"
		if n.errorRate() > b.errorRate() || !n.Correct {
			verdict = "regressed"
			regressions++
		}
		fmt.Printf("%-18s %-14s %14.6f %14.6f %8s %6s  %s\n", w, "error_rate", b.errorRate(), n.errorRate(), "", "0%", verdict)
	}
	if regressions > 0 {
		return fmt.Errorf("%d regressions", regressions)
	}
	return nil
}

// calibrateCmd runs the untraced suite twice with one seed and prints each
// metric's relative difference next to its bound — the table README.md
// carries as the baseline. It fails when a difference exceeds its bound or a
// run is not correct.
func calibrateCmd(args []string) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed of both passes")
	seconds := fs.Float64("seconds", float64(spec.RunSeconds), "measured seconds per run")
	smoke := fs.Bool("smoke", false, "test-suite scale datasets")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var passes [2]map[string]*result
	for p := range passes {
		passes[p] = map[string]*result{}
		for _, w := range spec.workloadNames() {
			res, err := runOne(spec, runConfig{workload: w, seed: *seed, seconds: *seconds, smoke: *smoke})
			if err != nil {
				return err
			}
			passes[p][w] = res
		}
	}
	fmt.Printf("\n%s, %d CPUs, seed %d, %g s per run\n\n", runtime.Version(), runtime.NumCPU(), *seed, *seconds)
	fmt.Println("| workload | metric | pass 1 | pass 2 | spread | bound |")
	fmt.Println("|---|---|---|---|---|---|")
	bad := 0
	for _, w := range spec.workloadNames() {
		a, b := passes[0][w], passes[1][w]
		if !a.Correct || !b.Correct {
			bad++
		}
		for _, m := range spec.EndToEnd {
			av, bv := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			spread := math.Abs(av-bv) / ((av + bv) / 2)
			mark := ""
			if spread > m.Bound {
				mark = " ✗"
				bad++
			}
			fmt.Printf("| %s | %s | %.4g %s | %.4g %s | %.1f%%%s | %.0f%% |\n", w, m.Name, av, m.Unit, bv, m.Unit, 100*spread, mark, 100*m.Bound)
		}
		fmt.Printf("| %s | error_rate | %g | %g | | 0 |\n", w, a.errorRate(), b.errorRate())
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics outside their bound or runs not correct", bad)
	}
	return nil
}
