package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runConfig is one invocation: a workload, the seed its inputs come from,
// how long to measure, and whether this is the traced run.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke swaps every dataset for the test-suite shape.
	smoke bool
	// outDir receives result and trace files ("" = none); workDir is the
	// run's scratch directory, created and removed by runWorkload.
	outDir, workDir string
}

// shape returns the workload's dataset shape, or the smoke shape.
func (c runConfig) shape(full shape) shape {
	if c.smoke {
		return shapeSmoke
	}
	return full
}

// Set-up runs at least minSetups times, and up to maxSetups while all of them
// together have taken less than cheapSetups (a 0.1 s set-up needs more
// repeats than a 1.5 s one for a steady median); setup_s is the median. The
// last instance is the one measured.
const (
	minSetups   = 3
	maxSetups   = 9
	cheapSetups = 2 * time.Second
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload      string                 `json:"workload"`
	Trace         int                    `json:"trace"`
	Seed          int64                  `json:"seed"`
	Seconds       float64                `json:"seconds"`
	Correct       bool                   `json:"correct"`
	Attempted     int                    `json:"attempted"`
	Failed        int                    `json:"failed"`
	FirstError    string                 `json:"first_error,omitempty"`
	AnswersDigest string                 `json:"answers_digest"`
	ScriptDigest  string                 `json:"script_digest"`
	SampleCounts  map[string]int         `json:"sample_counts"`
	Metrics       map[string]metricValue `json:"metrics"`
	TraceFile     string                 `json:"trace_file,omitempty"`
	TraceLayers   []string               `json:"trace_layers,omitempty"`
}

// workloads maps each workload name to its implementation; BENCHMARK.json
// must declare exactly these.
var workloads = map[string]func() workload{
	"serve_interactive": func() workload { return &serveWorkload{} },
	"deep_fit":          func() workload { return &deepWorkload{} },
	"cold_matrix":       func() workload { return &coldWorkload{} },
	"ingest_mixed":      func() workload { return &ingestWorkload{} },
}

// measured is a window plus what the process did during it.
type measured struct {
	*window
	heapMeanMB    float64
	heapPeakMB    float64
	before, after runtimeCounters
}

// measure runs one window with the heap sampler on. The collector runs
// first so garbage from set-up is not charged to the window.
func measure(w workload, d time.Duration, tr *tracer) (*measured, error) {
	runtime.GC()
	m := &measured{before: readRuntimeCounters()}
	hs := startHeapSampler()
	win, err := w.window(d, tr)
	m.heapMeanMB, m.heapPeakMB = hs.finish()
	m.after = readRuntimeCounters()
	m.window = win
	return m, err
}

// endToEnd derives the end-to-end metrics of a window.
func (m *measured) endToEnd(res *result, setupS float64) map[string]float64 {
	op := sortedCopy(m.sm.get("op"))
	for _, name := range []string{"op_p50_ms", "op_p90_ms", "ops_per_s"} {
		res.SampleCounts[name] = len(op)
	}
	return map[string]float64{
		"op_p50_ms":    quantile(op, 0.50),
		"op_p90_ms":    quantile(op, 0.90),
		"ops_per_s":    float64(len(op)) / m.elapsed.Seconds(),
		"heap_mean_mb": m.heapMeanMB,
		"setup_s":      setupS,
	}
}

// emit fills the result's metrics from values, taking each unit from the
// declaration. A value nobody declared is emitted without one, so that
// conform rejects the run; a declared metric without a value is left for
// conform to report as missing.
func (r *result) emit(declared []metricSpec, values map[string]float64) {
	units := make(map[string]string, len(declared))
	for _, m := range declared {
		units[m.Name] = m.Unit
	}
	for name, v := range values {
		r.Metrics[name] = metricValue{Value: v, Unit: units[name]}
	}
}

// runWorkload performs one complete run and never leaves a server, a
// goroutine or a file outside cfg.outDir behind.
func runWorkload(cfg runConfig, spec *benchSpec) (res *result, err error) {
	mk, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	w := mk()
	// The run's scratch directory holds its inputs and write-ahead logs.
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	if cfg.workDir, err = os.MkdirTemp(buildDir, "run-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.workDir)
	defer func() {
		// Servers stop before the deferred RemoveAll takes their WAL
		// directories away.
		if cerr := w.close(); err == nil {
			err = cerr
		}
	}()

	res = &result{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
		SampleCounts: map[string]int{}, Metrics: map[string]metricValue{},
	}
	genStart := time.Now()
	in, err := w.prepare(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	genS := time.Since(genStart).Seconds()
	res.ScriptDigest = w.scriptDigest()

	var setups []float64
	var spent time.Duration
	for i := 0; i < minSetups || (i < maxSetups && spent < cheapSetups); i++ {
		// Each set-up starts from a collected heap, not from the previous
		// instance's garbage.
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		spent += time.Since(t0)
		setups = append(setups, time.Since(t0).Seconds())
	}
	setupS := median(setups)

	total := time.Duration(cfg.seconds * float64(time.Second))
	var ops opLog
	if !cfg.trace {
		m, err := measure(w, total, nil)
		if err != nil {
			return nil, err
		}
		ops = m.ops
		res.emit(spec.EndToEnd, m.endToEnd(res, setupS))
	} else {
		res.Trace = 1
		// A third of the time untraced, the rest traced: the difference in
		// the headline median is the tracing overhead.
		plain, err := measure(w, total/3, nil)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		traced, err := measure(w, total-total/3, tr)
		if err != nil {
			return nil, err
		}
		ops = plain.ops
		ops.merge(&traced.ops)
		lp := &layerPass{cfg: cfg, spec: spec, in: in, w: w, tr: tr, sm: traced.sm}
		if err := lp.run(plain, traced, genS, res); err != nil {
			return nil, fmt.Errorf("layer pass: %w", err)
		}
		if cfg.outDir != "" {
			if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
				return nil, err
			}
			res.TraceFile = filepath.Join(cfg.outDir, cfg.workload+".trace.jsonl")
			if err := tr.writeJSONL(res.TraceFile); err != nil {
				return nil, err
			}
		}
		res.TraceLayers = tr.layers()
	}

	res.Attempted, res.Failed = ops.attempted, ops.failed
	if ops.firstErr != nil {
		res.FirstError = ops.firstErr.Error()
	}
	dg, err := w.check()
	if err != nil {
		res.FirstError = "answer check: " + err.Error()
	} else {
		res.AnswersDigest = dg
	}
	res.Correct = err == nil && res.Failed == 0 && res.Attempted > 0
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			res.Correct = false
			res.FirstError = fmt.Sprintf("metric %s is not finite", name)
		}
	}
	return res, nil
}

// metricNames returns the result's metric names, sorted.
func (r *result) metricNames() []string {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
