package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// This file renders the registry in the Prometheus text exposition format
// (version 0.0.4): `# HELP` / `# TYPE` preambles followed by
// `name{label="value"} number` sample lines. Only the stdlib is used; the
// format is simple enough that a hand-rolled writer beats a dependency.

// secs renders a duration as seconds with full float precision, the unit
// Prometheus conventions expect.
func secs(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}

// Gauge is one extra single-value metric the serving layer contributes to
// the exposition (session counts, cache size, build info) beyond what the
// registry itself tracks.
type Gauge struct {
	Name    string
	Help    string
	Labels  string // rendered verbatim inside {}, may be empty
	Value   float64
	Counter bool // typed counter: a cumulative total that never decreases
}

// WriteProm renders every endpoint's counters and histogram, the aggregated
// stage totals, and the caller's extra gauges. Every endpoint appears in the
// output even before its first request, so scrapes enumerate the full route
// surface from the start.
func (r *Registry) WriteProm(w io.Writer, extra []Gauge) {
	fmt.Fprint(w, "# HELP reptile_requests_total Requests served, by endpoint.\n")
	fmt.Fprint(w, "# TYPE reptile_requests_total counter\n")
	for e := Endpoint(0); e < NumEndpoints; e++ {
		fmt.Fprintf(w, "reptile_requests_total{endpoint=%q} %d\n", e, r.endpoints[e].Requests.Load())
	}

	fmt.Fprint(w, "# HELP reptile_request_errors_total Error responses, by endpoint and api error code.\n")
	fmt.Fprint(w, "# TYPE reptile_request_errors_total counter\n")
	for e := Endpoint(0); e < NumEndpoints; e++ {
		errs := r.endpoints[e].Errors()
		codes := make([]string, 0, len(errs))
		for c := range errs {
			codes = append(codes, c)
		}
		sort.Strings(codes)
		for _, c := range codes {
			fmt.Fprintf(w, "reptile_request_errors_total{endpoint=%q,code=%q} %d\n", e, c, errs[c])
		}
	}

	fmt.Fprint(w, "# HELP reptile_requests_in_flight Requests currently being served, by endpoint.\n")
	fmt.Fprint(w, "# TYPE reptile_requests_in_flight gauge\n")
	for e := Endpoint(0); e < NumEndpoints; e++ {
		fmt.Fprintf(w, "reptile_requests_in_flight{endpoint=%q} %d\n", e, r.endpoints[e].InFlight.Load())
	}

	fmt.Fprint(w, "# HELP reptile_request_duration_seconds Request latency, by endpoint.\n")
	fmt.Fprint(w, "# TYPE reptile_request_duration_seconds histogram\n")
	for e := Endpoint(0); e < NumEndpoints; e++ {
		s := r.endpoints[e].Latency.Snapshot()
		cum := uint64(0)
		for i := 0; i < NumBuckets; i++ {
			cum += s.Buckets[i]
			le := "+Inf"
			if ub := UpperBound(i); ub >= 0 {
				le = secs(ub)
			}
			fmt.Fprintf(w, "reptile_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n", e, le, cum)
		}
		fmt.Fprintf(w, "reptile_request_duration_seconds_sum{endpoint=%q} %s\n", e, secs(s.Sum))
		fmt.Fprintf(w, "reptile_request_duration_seconds_count{endpoint=%q} %d\n", e, s.Count)
	}

	fmt.Fprint(w, "# HELP reptile_cache_requests_total Recommendation cache lookups, by endpoint and outcome.\n")
	fmt.Fprint(w, "# TYPE reptile_cache_requests_total counter\n")
	for e := Endpoint(0); e < NumEndpoints; e++ {
		m := &r.endpoints[e]
		hits, misses := m.CacheHits.Load(), m.CacheMisses.Load()
		if hits == 0 && misses == 0 {
			continue
		}
		fmt.Fprintf(w, "reptile_cache_requests_total{endpoint=%q,outcome=\"hit\"} %d\n", e, hits)
		fmt.Fprintf(w, "reptile_cache_requests_total{endpoint=%q,outcome=\"miss\"} %d\n", e, misses)
	}

	fmt.Fprint(w, "# HELP reptile_stage_duration_seconds_total Cumulative exclusive time in each recommend pipeline stage.\n")
	fmt.Fprint(w, "# TYPE reptile_stage_duration_seconds_total counter\n")
	stages := r.StageTotals()
	for _, st := range stages {
		fmt.Fprintf(w, "reptile_stage_duration_seconds_total{stage=%q} %s\n", st.Name, secs(st.Total))
	}
	fmt.Fprint(w, "# HELP reptile_stage_requests_total Requests that recorded each recommend pipeline stage.\n")
	fmt.Fprint(w, "# TYPE reptile_stage_requests_total counter\n")
	for _, st := range stages {
		fmt.Fprintf(w, "reptile_stage_requests_total{stage=%q} %d\n", st.Name, st.Count)
	}

	fmt.Fprint(w, "# HELP reptile_uptime_seconds Seconds since the server started.\n")
	fmt.Fprint(w, "# TYPE reptile_uptime_seconds gauge\n")
	fmt.Fprintf(w, "reptile_uptime_seconds %s\n", secs(time.Since(r.Start)))

	for _, g := range extra {
		typ := "gauge"
		if g.Counter {
			typ = "counter"
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", g.Name, g.Help, g.Name, typ)
		if g.Labels != "" {
			fmt.Fprintf(w, "%s{%s} %s\n", g.Name, g.Labels, strconv.FormatFloat(g.Value, 'g', -1, 64))
		} else {
			fmt.Fprintf(w, "%s %s\n", g.Name, strconv.FormatFloat(g.Value, 'g', -1, 64))
		}
	}
}
