package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/reptile/api"
)

// promLine matches one Prometheus text-format sample:
// name{labels} value  or  name value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9.eE+-]+(Inf)?$`)

// TestMetricsExposition scrapes /v1/metrics after real traffic and checks
// the exposition is well-formed Prometheus text covering every endpoint.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := registerTestDataset(t, ts.URL)
	if code, b := post(t, ts.URL+"/v1/sessions/"+id+"/recommend",
		api.RecommendRequest{Complaint: testComplaint}); code != http.StatusOK {
		t.Fatalf("recommend: %d %s", code, b)
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	// Every line is a comment or a well-formed sample.
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}

	// Every endpoint label appears in the request counter, even untouched
	// ones (pre-rendered at zero so dashboards see the full set).
	for e := obs.Endpoint(0); e < obs.NumEndpoints; e++ {
		want := fmt.Sprintf("reptile_requests_total{endpoint=%q}", e)
		if !strings.Contains(body, want) {
			t.Errorf("exposition is missing %s", want)
		}
	}

	// The recommend that ran shows up in the counter, the histogram and the
	// stage totals.
	for _, want := range []string{
		`reptile_requests_total{endpoint="recommend"} 1`,
		`reptile_request_duration_seconds_count{endpoint="recommend"} 1`,
		`reptile_request_duration_seconds_bucket{endpoint="recommend",le="+Inf"} 1`,
		`reptile_cache_requests_total{endpoint="recommend",outcome="miss"} 1`,
		`reptile_stage_requests_total{stage="evaluate"} 1`,
		`reptile_uptime_seconds `,
		`reptile_datasets 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition is missing %q", want)
		}
	}
}

// TestStatsServerInfoAndEndpointCounters checks the JSON twin of the metrics
// data: server identity, per-endpoint counters and latency summaries, and
// the recommendation-cache hit/miss counters at both endpoint and dataset
// granularity.
func TestStatsServerInfoAndEndpointCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{Version: "v-test"})
	id := registerTestDataset(t, ts.URL)
	for i := 0; i < 2; i++ { // second request is a cache hit
		if code, b := post(t, ts.URL+"/v1/sessions/"+id+"/recommend",
			api.RecommendRequest{Complaint: testComplaint}); code != http.StatusOK {
			t.Fatalf("recommend %d: %d %s", i, code, b)
		}
	}

	code, b := get(t, ts.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, b)
	}
	var sr api.StatsResponse
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatal(err)
	}

	if sr.Server.Version != "v-test" {
		t.Errorf("server.version = %q, want v-test", sr.Server.Version)
	}
	if sr.Server.GoVersion != runtime.Version() {
		t.Errorf("server.go_version = %q, want %q", sr.Server.GoVersion, runtime.Version())
	}
	if _, err := time.Parse(time.RFC3339, sr.Server.StartTime); err != nil {
		t.Errorf("server.start_time %q: %v", sr.Server.StartTime, err)
	}
	if sr.Server.UptimeSeconds <= 0 {
		t.Errorf("server.uptime_seconds = %v, want > 0", sr.Server.UptimeSeconds)
	}

	rec, ok := sr.Endpoints["recommend"]
	if !ok {
		t.Fatalf("stats endpoints = %v, missing recommend", sr.Endpoints)
	}
	if rec.Requests != 2 {
		t.Errorf("recommend requests = %d, want 2", rec.Requests)
	}
	if rec.Latency.Count != 2 || rec.Latency.P50MS <= 0 || rec.Latency.MaxMS < rec.Latency.P50MS {
		t.Errorf("recommend latency summary = %+v", rec.Latency)
	}
	if rec.Cache == nil || rec.Cache.Hits != 1 || rec.Cache.Misses != 1 {
		t.Errorf("recommend cache = %+v, want 1 hit / 1 miss", rec.Cache)
	}
	if len(sr.Stages) == 0 {
		t.Error("stats has no stage totals")
	}

	ds, ok := sr.Datasets["drought"]
	if !ok {
		t.Fatalf("stats datasets = %+v, missing drought", sr.Datasets)
	}
	if ds.Cache == nil || ds.Cache.Hits != 1 || ds.Cache.Misses != 1 {
		t.Errorf("dataset cache = %+v, want 1 hit / 1 miss", ds.Cache)
	}
}

// TestStatsExemptFromRecommendLimiter locks in that observability endpoints
// never ride the recommend admission limiter: with the dataset's only slot
// occupied, recommends answer 429 while /v1/stats and /v1/metrics stay 200 —
// saturation must be observable, not self-concealing.
func TestStatsExemptFromRecommendLimiter(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1, QueueWait: -1})
	id := registerTestDataset(t, ts.URL)

	s.mu.Lock()
	ent := s.engines["drought"]
	s.mu.Unlock()
	ent.slots <- struct{}{}
	defer func() { <-ent.slots }()

	if code, b := post(t, ts.URL+"/v1/sessions/"+id+"/recommend",
		api.RecommendRequest{Complaint: testComplaint}); code != http.StatusTooManyRequests {
		t.Fatalf("saturated recommend: %d %s, want 429", code, b)
	}
	if code, b := get(t, ts.URL+"/v1/stats"); code != http.StatusOK {
		t.Errorf("stats under saturation: %d %s, want 200", code, b)
	}
	if code, b := get(t, ts.URL+"/v1/metrics"); code != http.StatusOK {
		t.Errorf("metrics under saturation: %d %s, want 200", code, b)
	}

	// The 429s are visible in the exposition.
	_, b := get(t, ts.URL+"/v1/metrics")
	if want := `reptile_request_errors_total{endpoint="recommend",code="overloaded"} 1`; !strings.Contains(string(b), want) {
		t.Errorf("exposition is missing %q", want)
	}
}

// TestTracedRecommendStages requests per-stage timings and checks both
// transports (response body and X-Reptile-Trace header) and the exclusive
// decomposition's accounting: stage durations never exceed the request's wall
// time and leave at most a tenth of it (or 0.25 ms) unattributed.
func TestTracedRecommendStages(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A heavier EM budget keeps evaluate above the fixed per-request overhead.
	register(t, ts.URL, api.RegisterDatasetRequest{
		Name: "drought", CSV: testCSV, Measures: []string{"severity"},
		Hierarchies: testHierarchies, EMIterations: 256,
	})
	id := createSession(t, ts.URL)

	// traced posts one traced recommend, checks what must hold on every
	// request, and returns the stage sum and the wall time.
	traced := func(complaint string) (sum, total float64) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions/"+id+"/recommend",
			strings.NewReader(`{"complaint":"`+complaint+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Reptile-Trace", "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("traced recommend: %d", resp.StatusCode)
		}

		var rr api.RecommendResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		if len(rr.Stages) == 0 {
			t.Fatal("traced response has no stages")
		}
		stages := make(map[string]bool)
		for _, st := range rr.Stages {
			sum += st.DurationMS
			stages[st.Name] = true
		}
		for _, want := range []string{"bind", "decode", "cache", "evaluate", "encode"} {
			if !stages[want] {
				t.Errorf("stages %v are missing %q", rr.Stages, want)
			}
		}

		hdr := resp.Header.Get("X-Reptile-Trace")
		if hdr == "" {
			t.Fatal("response has no X-Reptile-Trace header")
		}
		last := hdr[strings.LastIndex(hdr, "total;dur=")+len("total;dur="):]
		total, err = strconv.ParseFloat(last, 64)
		if err != nil {
			t.Fatalf("parsing total from header %q: %v", hdr, err)
		}
		if sum > total*1.001 {
			t.Errorf("stage sum %.3fms exceeds wall time %.3fms", sum, total)
		}
		return sum, total
	}

	// No stage is missing from the ledger: what the stages leave unattributed
	// is a tenth of the request at most, or a fixed 0.25 ms when the request
	// is shorter than that allows. A missing stage would show on every
	// request, a scheduler hiccup between two stages on one, so the property
	// is asserted on the best of a few distinct (uncached) complaints.
	best := math.Inf(1) // smallest excess over the bound
	for attempt := 0; attempt < 5 && best > 0; attempt++ {
		sum, total := traced(fmt.Sprintf("agg=mean measure=severity dir=should target=%d district=Ofla year=1986", attempt))
		best = math.Min(best, math.Max(0, total-sum-math.Max(0.1*total, 0.25)))
	}
	if best > 0 {
		t.Errorf("every traced request left more wall time unattributed than the bound allows, the best by %.3fms", best)
	}

	// An untraced request carries neither stages nor the header.
	code, b := post(t, ts.URL+"/v1/sessions/"+id+"/recommend",
		api.RecommendRequest{Complaint: testComplaint})
	if code != http.StatusOK {
		t.Fatalf("untraced recommend: %d %s", code, b)
	}
	var plain api.RecommendResponse
	if err := json.Unmarshal(b, &plain); err != nil {
		t.Fatal(err)
	}
	if len(plain.Stages) != 0 {
		t.Errorf("untraced response carries stages: %+v", plain.Stages)
	}
}

// TestMetricsScrapeDuringShardedIngest is a data-race canary (run under
// -race in CI): /v1/metrics and /v1/stats are scraped continuously while a
// sharded WAL-backed dataset serves concurrent recommends and micro-batched
// appends.
func TestMetricsScrapeDuringShardedIngest(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Shards: 2, CacheSize: -1,
		WAL: true, WALDir: t.TempDir(),
		FlushRows: 2, FlushInterval: 5 * time.Millisecond,
	})
	code, b := post(t, ts.URL+"/v1/datasets", api.RegisterDatasetRequest{
		Name: "drought", CSV: testCSV, Measures: []string{"severity"},
		Hierarchies: testHierarchies, EMIterations: 2, Workers: 2,
	})
	if code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, b)
	}

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, b := post(t, ts.URL+"/v1/sessions",
				api.CreateSessionRequest{Dataset: "drought", GroupBy: []string{"district", "year"}})
			if code != http.StatusCreated {
				t.Errorf("session: %d %s", code, b)
				return
			}
			var sess api.Session
			if err := json.Unmarshal(b, &sess); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 5; i++ {
				code, b := post(t, ts.URL+"/v1/sessions/"+sess.ID+"/recommend",
					api.RecommendRequest{Complaint: testComplaint})
				if code != http.StatusOK && code != http.StatusTooManyRequests {
					t.Errorf("recommend: %d %s", code, b)
					return
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			csv := fmt.Sprintf("district,village,year,severity\nOfla,Adishim,19%d,5\n", 90+i)
			code, b := post(t, ts.URL+"/v1/datasets/drought/append", api.AppendRequest{CSV: csv})
			if code != http.StatusOK {
				t.Errorf("append: %d %s", code, b)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if code, b := get(t, ts.URL+"/v1/metrics"); code != http.StatusOK {
				t.Errorf("metrics scrape: %d %s", code, b)
				return
			}
			if code, b := get(t, ts.URL+"/v1/stats"); code != http.StatusOK {
				t.Errorf("stats scrape: %d %s", code, b)
				return
			}
		}
	}()
	wg.Wait()
}

// TestMetricsGoRuntime scrapes /v1/metrics twice around an allocation and a
// GC cycle: the Go runtime's four series are present under their types, and
// no counter goes down between scrapes (heap allocations go up).
func TestMetricsGoRuntime(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	types := map[string]string{
		"reptile_go_gc_cycles_total":         "counter",
		"reptile_go_gc_cpu_seconds_total":    "counter",
		"reptile_go_heap_allocs_bytes_total": "counter",
		"reptile_go_heap_live_bytes":         "gauge",
	}
	scrape := func() map[string]float64 {
		t.Helper()
		code, b := get(t, ts.URL+"/v1/metrics")
		if code != http.StatusOK {
			t.Fatalf("metrics: %d %s", code, b)
		}
		got := map[string]float64{}
		for _, line := range strings.Split(string(b), "\n") {
			for name, typ := range types {
				if line == "# TYPE "+name+" "+typ {
					got["type "+name] = 1
				}
				if v, ok := strings.CutPrefix(line, name+" "); ok {
					f, err := strconv.ParseFloat(v, 64)
					if err != nil {
						t.Fatalf("%s: %v", line, err)
					}
					got[name] = f
				}
			}
		}
		for name := range types {
			if _, ok := got[name]; !ok || got["type "+name] != 1 {
				t.Fatalf("exposition lacks %s as a %s", name, types[name])
			}
		}
		return got
	}
	before := scrape()
	sink := make([][]byte, 64)
	for i := range sink {
		sink[i] = make([]byte, 64<<10)
	}
	runtime.GC()
	after := scrape()
	runtime.KeepAlive(sink)
	for name, typ := range types {
		if typ == "counter" && after[name] < before[name] {
			t.Errorf("%s went from %v to %v", name, before[name], after[name])
		}
	}
	if after["reptile_go_heap_allocs_bytes_total"] < before["reptile_go_heap_allocs_bytes_total"]+4<<20 {
		t.Errorf("heap allocations went from %v to %v bytes around a 4 MiB allocation",
			before["reptile_go_heap_allocs_bytes_total"], after["reptile_go_heap_allocs_bytes_total"])
	}
	if after["reptile_go_gc_cycles_total"] <= before["reptile_go_gc_cycles_total"] {
		t.Errorf("GC cycles went from %v to %v around runtime.GC", before["reptile_go_gc_cycles_total"], after["reptile_go_gc_cycles_total"])
	}
}
