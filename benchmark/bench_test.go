package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// smokeSeconds is the window of a smoke run; with the smoke shape every
// workload still completes tens of operations in it.
const smokeSeconds = 0.25

func mustSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func smokeRun(t *testing.T, spec *benchSpec, workload string, traced bool, seed int64) *result {
	t.Helper()
	cfg := runConfig{workload: workload, seed: seed, seconds: smokeSeconds, trace: traced, smoke: true}
	if traced {
		// Trace files go next to the run's other scratch output.
		cfg.outDir = testDir(t)
	}
	res, err := runWorkload(cfg, spec)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// TestSmoke runs every declared workload, untraced and traced, at the smoke
// scale and holds the results against BENCHMARK.json in both directions.
func TestSmoke(t *testing.T) {
	spec := mustSpec(t)

	var declared, implemented []string
	declared = append(declared, spec.workloadNames()...)
	for name := range workloads {
		implemented = append(implemented, name)
	}
	sort.Strings(declared)
	sort.Strings(implemented)
	if strings.Join(declared, ",") != strings.Join(implemented, ",") {
		t.Fatalf("BENCHMARK.json declares workloads %v, the code implements %v", declared, implemented)
	}

	// Every layer of the per-layer table must show up in a traced run's
	// spans.
	wantLayers := map[string]bool{}
	for _, m := range spec.PerLayer {
		if l := m.Name[:strings.IndexByte(m.Name, '.')]; l != "runtime" {
			wantLayers[l] = true
		}
	}

	for _, w := range spec.workloadNames() {
		for _, traced := range []bool{false, true} {
			name := w + "/untraced"
			if traced {
				name = w + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				res := smokeRun(t, spec, w, traced, 7)
				if err := spec.conform(res); err != nil {
					t.Error(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d first error: %s", res.Correct, res.Attempted, res.Failed, res.FirstError)
				}
				if res.AnswersDigest == "" || res.ScriptDigest == "" {
					t.Errorf("missing digest: answers %q script %q", res.AnswersDigest, res.ScriptDigest)
				}
				var out bytes.Buffer
				printResult(&out, res)
				for _, m := range spec.declared(traced) {
					v := res.Metrics[m.Name].Value
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s = %v is not finite", m.Name, v)
					}
					line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.Name) + ` \S+ ` + regexp.QuoteMeta(m.Unit) + `( |$)`)
					if n := len(line.FindAllString(out.String(), -1)); n != 1 {
						t.Errorf("%s printed %d times, want once", m.Name, n)
					}
				}
				if !traced {
					return
				}
				if _, err := os.Stat(res.TraceFile); err != nil {
					t.Errorf("trace file: %v", err)
				}
				got := map[string]bool{}
				for _, l := range res.TraceLayers {
					got[l] = true
				}
				for l := range wantLayers {
					if !got[l] {
						t.Errorf("no span for layer %s (have %v)", l, res.TraceLayers)
					}
				}
				// The parts of a cold session must add up to the session
				// (loosely here: three sub-millisecond sessions per form).
				for _, f := range coldForms {
					parts := 0.0
					for _, p := range []string{"open_ms", "complain1_ms", "complain2_ms", "close_ms"} {
						parts += res.Metrics["sdk."+p+"."+f.name].Value
					}
					if whole := res.Metrics["sdk.session_p50_ms."+f.name].Value; parts > 2*whole || parts < 0.5*whole {
						t.Errorf("sdk parts of %s sum to %.3f ms, session p50 is %.3f ms", f.name, parts, whole)
					}
				}
			})
		}
	}
}

// TestConformRejectsUndeclared is the other direction of the contract: a
// metric the code emits but BENCHMARK.json does not declare fails the run.
func TestConformRejectsUndeclared(t *testing.T) {
	spec := mustSpec(t)
	res := &result{Workload: "x", Metrics: map[string]metricValue{}}
	for _, m := range spec.EndToEnd {
		res.Metrics[m.Name] = metricValue{1, m.Unit}
	}
	if err := spec.conform(res); err != nil {
		t.Fatalf("complete result rejected: %v", err)
	}
	res.Metrics["made_up_ms"] = metricValue{1, "ms"}
	if err := spec.conform(res); err == nil {
		t.Fatal("undeclared metric accepted")
	}
	delete(res.Metrics, "made_up_ms")
	delete(res.Metrics, spec.EndToEnd[0].Name)
	if err := spec.conform(res); err == nil {
		t.Fatal("missing metric accepted")
	}
}

// TestAnswersDigestStable runs one workload twice with one seed: the answers
// are a function of the rows and the drill state and nothing else.
func TestAnswersDigestStable(t *testing.T) {
	spec := mustSpec(t)
	for _, w := range []string{"cold_matrix", "ingest_mixed"} {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			a := smokeRun(t, spec, w, false, 11)
			b := smokeRun(t, spec, w, false, 11)
			if a.AnswersDigest == "" || a.AnswersDigest != b.AnswersDigest {
				t.Errorf("answers digest changed between two runs of one seed: %q vs %q", a.AnswersDigest, b.AnswersDigest)
			}
			if a.ScriptDigest != b.ScriptDigest {
				t.Errorf("script digest changed between two runs of one seed")
			}
		})
	}
}
