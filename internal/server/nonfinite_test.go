package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/reptile/api"
)

// TestOverflowingMeasuresAnswer422: measures of 1e200 are finite, so they
// pass registration, but their squares overflow and a std complaint's
// statistics become NaN. The recommend is refused as unprocessable, naming
// the hierarchy and the field JSON cannot hold, not answered 500.
func TestOverflowingMeasuresAnswer422(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	csv := strings.NewReplacer("8\n", "1e200\n", "7\n", "2e200\n", "6\n", "3e200\n", ",2\n", ",4e200\n").Replace(testCSV)
	code, b := post(t, ts.URL+"/v1/datasets", api.RegisterDatasetRequest{
		Name: "huge", CSV: csv, Measures: []string{"severity"}, Hierarchies: testHierarchies, EMIterations: 4,
	})
	if code != http.StatusCreated {
		t.Fatalf("register dataset: %d %s", code, b)
	}
	code, b = post(t, ts.URL+"/v1/sessions", api.CreateSessionRequest{Dataset: "huge", GroupBy: []string{"district", "year"}})
	if code != http.StatusCreated {
		t.Fatalf("create session: %d %s", code, b)
	}
	var sr api.Session
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatal(err)
	}
	code, b = post(t, ts.URL+"/v1/sessions/"+sr.ID+"/recommend",
		api.RecommendRequest{Complaint: "agg=std measure=severity dir=high district=Ofla year=1986"})
	var er api.Error
	if err := json.Unmarshal(b, &er); err != nil {
		t.Fatalf("recommend: %d %s: not a JSON error envelope", code, b)
	}
	if code != http.StatusUnprocessableEntity || er.Code != api.CodeUnprocessable {
		t.Fatalf("recommend: %d %s, want 422 unprocessable", code, b)
	}
	if !strings.Contains(er.Message, `hierarchy "geo"`) || !strings.Contains(er.Message, "JSON cannot encode") {
		t.Errorf("message %q does not name the hierarchy and the value", er.Message)
	}
}
