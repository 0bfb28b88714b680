package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/reptile/api"
)

// TestStatsEndpoint drives the full dataset lifecycle — register, recommend
// (miss then hit), append — and checks GET /v1/stats reports the snapshot
// version, cube status, cache counters and engine memo counters at each step.
func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := registerTestDataset(t, ts.URL)

	fetch := func() api.StatsResponse {
		t.Helper()
		code, b := get(t, ts.URL+"/v1/stats")
		if code != http.StatusOK {
			t.Fatalf("stats: %d %s", code, b)
		}
		var resp api.StatsResponse
		if err := json.Unmarshal(b, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	st := fetch()
	d, ok := st.Datasets["drought"]
	if !ok {
		t.Fatalf("stats missing the registered dataset: %+v", st)
	}
	if d.Version != 1 || d.Rows != 8 || d.Sessions != 1 {
		t.Errorf("dataset stats = %+v, want version 1, 8 rows, 1 session", d)
	}
	// Registration materializes the shared cube: demo schema is a 3×2
	// lattice (geo: district,village × time: year).
	if !d.Cube.Present || d.Cube.Levels != 6 || d.Cube.Cells == 0 {
		t.Errorf("cube status = %+v, want present with 6 levels", d.Cube)
	}
	if st.Sessions != 1 {
		t.Errorf("sessions = %d, want 1", st.Sessions)
	}

	// One miss, one hit.
	url := ts.URL + "/v1/sessions/" + id + "/recommend"
	for i := 0; i < 2; i++ {
		if code, b := post(t, url, api.RecommendRequest{Complaint: testComplaint}); code != http.StatusOK {
			t.Fatalf("recommend: %d %s", code, b)
		}
	}
	st = fetch()
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Cache.Size != 1 {
		t.Errorf("cache stats = %+v, want 1 hit, 1 miss, size 1", st.Cache)
	}
	// The miss fitted the one candidate's mean model; the cache hit asked the
	// engine nothing. Another direction misses the cache and hits the memo.
	m := st.Datasets["drought"].Memo
	if m == nil || m.Builds["fit"] != 1 || m.Hits["fit"] != 0 || m.Builds["groups"] == 0 || m.RetainedGroups == 0 {
		t.Fatalf("memo stats after one fit = %+v, want 1 fit built, none hit, group-bys built and retained", m)
	}
	if code, b := post(t, url, api.RecommendRequest{Complaint: strings.Replace(testComplaint, "dir=low", "dir=high", 1)}); code != http.StatusOK {
		t.Fatalf("recommend: %d %s", code, b)
	}
	if m2 := fetch().Datasets["drought"].Memo; m2.Builds["fit"] != 1 || m2.Hits["fit"] != 1 || m2.Builds["groups"] != m.Builds["groups"] || m2.Evictions != 0 {
		t.Errorf("memo stats after a warm recommend = %+v, want the fit hit and nothing built or evicted", m2)
	}

	// An append hot-swaps to version 2 and maintains the cube incrementally.
	if code, b := post(t, ts.URL+"/v1/datasets/drought/append", api.AppendRequest{CSV: appendCSV}); code != http.StatusOK {
		t.Fatalf("append: %d %s", code, b)
	}
	d = fetch().Datasets["drought"]
	if d.Version != 2 || d.Rows != 10 {
		t.Errorf("post-append stats = %+v, want version 2, 10 rows", d)
	}
	if d.Memo == nil || d.Memo.Builds["fit"] != 0 {
		t.Errorf("post-append memo = %+v, want the new version's engine, nothing fitted", d.Memo)
	}
	if !d.Cube.Present {
		t.Error("append dropped the cube")
	}
}

// TestStatsCubeDisabled checks DisableCube registrations report an absent
// cube and still serve.
func TestStatsCubeDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{DisableCube: true})
	id := registerTestDataset(t, ts.URL)
	code, b := get(t, ts.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, b)
	}
	var resp api.StatsResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if d := resp.Datasets["drought"]; d.Cube.Present || d.Cube.Levels != 0 {
		t.Errorf("cube status = %+v, want absent", d.Cube)
	}
	if code, b := post(t, ts.URL+"/v1/sessions/"+id+"/recommend", api.RecommendRequest{Complaint: testComplaint}); code != http.StatusOK {
		t.Fatalf("recommend without cube: %d %s", code, b)
	}
}

// TestCubeAndScanServeIdenticalBytes registers the same dataset on a
// cube-enabled and a cube-disabled server and asserts the served
// recommendation bytes are identical — the serving-layer twin of the
// internal/cube fidelity sweep.
func TestCubeAndScanServeIdenticalBytes(t *testing.T) {
	var recs []json.RawMessage
	for _, disable := range []bool{false, true} {
		_, ts := newTestServer(t, Config{DisableCube: disable})
		id := registerTestDataset(t, ts.URL)
		code, b := post(t, ts.URL+"/v1/sessions/"+id+"/recommend", api.RecommendRequest{Complaint: testComplaint})
		if code != http.StatusOK {
			t.Fatalf("recommend (disable=%v): %d %s", disable, code, b)
		}
		var resp api.RecommendResponse
		if err := json.Unmarshal(b, &resp); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, resp.Recommendation)
	}
	if string(recs[0]) != string(recs[1]) {
		t.Errorf("cube-enabled and cube-disabled servers served different bytes:\ncube: %.300s\nscan: %.300s", recs[0], recs[1])
	}
}
