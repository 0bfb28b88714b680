// Command experiments regenerates every table and figure of the paper's
// evaluation (see README.md for the experiment index). Each experiment
// prints an aligned text table; -scale controls dataset sizes and trial
// counts so the full suite can run in minutes (-scale full reproduces the
// paper-scale parameters).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		which   = flag.String("exp", "all", "comma-separated experiments: fig7,fig8,fig9,fig10,fig11,fig12,fig13,fig15,fig16,fig18,fist,ablations or all")
		scale   = flag.String("scale", "small", "small or full")
		seed    = flag.Int64("seed", 1, "random seed")
		workers = flag.Int("workers", 0, "engine worker-pool size (0 = NumCPU, except timing experiments like fig10 which pin 0 to sequential; 1 = sequential)")
	)
	flag.Parse()
	experiments.Workers = *workers

	full := *scale == "full"
	selected := map[string]bool{}
	for _, w := range strings.Split(*which, ",") {
		selected[strings.TrimSpace(w)] = true
	}
	want := func(name string) bool { return selected["all"] || selected[name] }

	run := func(name string, fn func()) {
		if !want(name) {
			return
		}
		fmt.Printf("=== %s ===\n", name)
		fn()
	}

	run("fig7", func() {
		maxD := 5
		if full {
			maxD = 7
		}
		_, t := experiments.Fig7(maxD, *seed)
		fmt.Println(t)
	})
	run("fig8", func() {
		cards := []int{200, 400, 800}
		if full {
			cards = []int{200, 400, 800, 1600, 3200}
		}
		_, t := experiments.Fig8(cards)
		fmt.Println(t)
	})
	run("fig9", func() {
		leaves := 10000
		if full {
			leaves = 100000
		}
		_, t := experiments.Fig9(leaves)
		fmt.Println(t)
	})
	run("fig10", func() {
		rowScale, iters := 0.1, 5
		if full {
			rowScale, iters = 1.0, 20
		}
		_, t := experiments.Fig10(rowScale, iters, *seed)
		fmt.Println(t)
	})
	run("fig11", func() {
		trials := 50
		if full {
			trials = 1000
		}
		_, t := experiments.Fig11(trials, nil, *seed)
		fmt.Println(t)
	})
	run("fig12", func() {
		trials := 50
		if full {
			trials = 1000
		}
		_, t := experiments.Fig12(trials, nil, *seed)
		fmt.Println(t)
	})
	run("fig13", func() {
		_, t, t1, t2 := experiments.Fig13(*seed)
		fmt.Println(t1)
		fmt.Println(t2)
		fmt.Println(t)
	})
	run("fig15", func() {
		maxD := 4
		if full {
			maxD = 6
		}
		_, t := experiments.Fig15(maxD, *seed)
		fmt.Println(t)
	})
	run("fig16", func() {
		iters := 10
		if full {
			iters = 20
		}
		_, t := experiments.Fig16(iters, *seed)
		fmt.Println(t)
	})
	run("fig18", func() {
		_, _, t := experiments.Fig18(*seed)
		fmt.Println(t)
	})
	run("fist", func() {
		iters := 10
		if full {
			iters = 20
		}
		_, t := experiments.FISTStudy(iters, *seed)
		fmt.Println(t)
	})
	run("ablations", func() {
		trials := 40
		if full {
			trials = 200
		}
		_, t := experiments.AblationZ(*seed)
		fmt.Println(t)
		_, t = experiments.AblationLeakGuard(trials, *seed)
		fmt.Println(t)
		_, t = experiments.AblationParallelGroups(*seed)
		fmt.Println(t)
	})

	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "unexpected arguments:", flag.Args())
		os.Exit(2)
	}
}
