// Command benchmark is the repository's benchmark: four workloads, a handful
// of end-to-end metrics and a table of per-layer metrics, one command. See
// README.md in this directory for what each workload and metric means.
//
//	benchmark -workload <name|all> -seed <n> -seconds <s> -trace <0|1> [-out <dir>]
//	benchmark compare <base.json> <new.json>
//	benchmark calibrate [-seed <n>] [-seconds <s>]
//
// With one workload, the last line of standard output is the run's result as
// one JSON object: {"correct","attempted","failed","metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func dispatch(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareCmd(args[1:])
		case "calibrate":
			return calibrateCmd(args[1:])
		}
	}
	return runCmd(args)
}

// buildDir is where everything the benchmark writes goes unless -out says
// otherwise; .gitignore names it.
const buildDir = ".bench_build"

func runCmd(args []string) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", float64(spec.RunSeconds), "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = untraced run reporting end-to-end metrics")
	out := fs.String("out", filepath.Join(buildDir, "out"), "directory for result and trace files")
	smoke := fs.Bool("smoke", false, "test-suite scale datasets")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, smoke: *smoke, outDir: *out}

	if *workload != "all" {
		cfg.workload, cfg.trace = *workload, *trace == 1
		res, err := runOne(spec, cfg)
		if err != nil {
			return err
		}
		if err := writeResults(cfg.outDir, []*result{res}); err != nil {
			return err
		}
		return printContractLine(res)
	}

	// The whole suite: every workload untraced, then traced.
	var all []*result
	failed := false
	for _, name := range spec.workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg.workload, cfg.trace = name, traced
			res, err := runOne(spec, cfg)
			if err != nil {
				return err
			}
			all = append(all, res)
			failed = failed || !res.Correct
		}
	}
	if err := writeResults(cfg.outDir, all); err != nil {
		return err
	}
	if failed {
		return fmt.Errorf("at least one run was not correct; see %s", filepath.Join(cfg.outDir, "results.json"))
	}
	return nil
}

// runOne runs one workload once, checks the result against BENCHMARK.json
// and prints every metric as "name value unit".
func runOne(spec *benchSpec, cfg runConfig) (*result, error) {
	res, err := runWorkload(cfg, spec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if err := spec.conform(res); err != nil {
		return nil, err
	}
	printResult(os.Stdout, res)
	return res, nil
}

// printResult writes every metric as "name value unit"; lines starting with
// '#' carry the sample count behind each percentile or mean, the operation
// counts and the digests.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "# workload %s trace %d seed %d seconds %g\n", r.Workload, r.Trace, r.Seed, r.Seconds)
	for _, name := range r.metricNames() {
		v := r.Metrics[name]
		fmt.Fprintf(w, "%s %v %s", name, v.Value, v.Unit)
		if n, ok := r.SampleCounts[name]; ok {
			fmt.Fprintf(w, "  # %d samples", n)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "# attempted %d failed %d correct %v\n", r.Attempted, r.Failed, r.Correct)
	fmt.Fprintf(w, "# answers_digest %s\n# script_digest %s\n", r.AnswersDigest, r.ScriptDigest)
	if r.FirstError != "" {
		fmt.Fprintf(w, "# first_error %s\n", r.FirstError)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "# trace %s layers %v\n", r.TraceFile, r.TraceLayers)
	}
}

// printContractLine prints the driver's result object as the last line.
func printContractLine(r *result) error {
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// resultsFile is what -out receives and what compare reads.
type resultsFile struct {
	GoVersion  string    `json:"go_version"`
	NumCPU     int       `json:"num_cpu"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Runs       []*result `json:"runs"`
}

func writeResults(dir string, runs []*result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(resultsFile{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Runs: runs,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "results.json"), append(b, '\n'), 0o644)
}
