package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec mirrors BENCHMARK.json, the one place workloads, metric names,
// units, directions and regression bounds are declared. The program reads it
// at run time and refuses to emit anything it does not declare.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec finds BENCHMARK.json in the working directory (the checkout root,
// where the driver runs the command) or its parent (where `go test` runs).
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, dir := range []string{".", ".."} {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
		}
		return &s, nil
	}
	return nil, firstErr
}

func (s *benchSpec) workloadNames() []string {
	out := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		out[i] = w.Name
	}
	return out
}

// declared returns the metrics a run with the given trace flag must emit.
func (s *benchSpec) declared(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// conform checks a result against the declaration, both ways: every declared
// metric present with its unit, nothing undeclared.
func (s *benchSpec) conform(r *result) error {
	want := s.declared(r.Trace == 1)
	seen := make(map[string]bool, len(want))
	for _, m := range want {
		v, ok := r.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s: declared metric %s was not emitted", r.Workload, m.Name)
		}
		if v.Unit != m.Unit {
			return fmt.Errorf("%s: metric %s has unit %q, declared %q", r.Workload, m.Name, v.Unit, m.Unit)
		}
		seen[m.Name] = true
	}
	for name := range r.Metrics {
		if !seen[name] {
			return fmt.Errorf("%s: emitted metric %s is not declared in BENCHMARK.json", r.Workload, name)
		}
	}
	return nil
}
