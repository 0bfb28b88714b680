package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"
)

func TestErrorEnvelopeJSON(t *testing.T) {
	b, err := json.Marshal(&Error{Message: "too busy", Code: CodeOverloaded, RetryAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"error":"too busy","code":"overloaded","retry_after":1}`
	if string(b) != want {
		t.Errorf("envelope = %s, want %s", b, want)
	}
	// retry_after is omitted when unset.
	b, _ = json.Marshal(&Error{Message: "nope", Code: CodeDatasetNotFound})
	if want := `{"error":"nope","code":"dataset_not_found"}`; string(b) != want {
		t.Errorf("envelope = %s, want %s", b, want)
	}
}

func TestErrorInterface(t *testing.T) {
	e := &Error{Message: "session \"s_1\" expired", Code: CodeSessionExpired}
	if got := e.Error(); got != `session "s_1" expired (session_expired)` {
		t.Errorf("Error() = %q", got)
	}
	wrapped := fmt.Errorf("recommend: %w", e)
	if !IsCode(wrapped, CodeSessionExpired) {
		t.Error("IsCode missed a wrapped envelope")
	}
	if IsCode(wrapped, CodeOverloaded) {
		t.Error("IsCode matched the wrong code")
	}
	if IsCode(errors.New("plain"), CodeSessionExpired) {
		t.Error("IsCode matched a non-envelope error")
	}
}

// TestCodeStatusRoundTrip holds the closed error-code set together: every
// Code* constant api.go declares is in ErrorCodes exactly once (so the
// server's per-code counters, sized from the array, have a bucket for it),
// and HTTPStatus and CodeForStatus are inverses over the array up to the
// documented 404 collapse (session vs dataset). A code added to the const
// block and nowhere else fails here.
func TestCodeStatusRoundTrip(t *testing.T) {
	listed := map[ErrorCode]int{}
	for _, c := range ErrorCodes {
		listed[c]++
	}
	for name, c := range declaredCodes(t) {
		if listed[c] != 1 {
			t.Errorf("%s (%q) appears %d times in ErrorCodes, want once", name, c, listed[c])
		}
		delete(listed, c)
	}
	for c := range listed {
		t.Errorf("ErrorCodes lists %q, which api.go does not declare", c)
	}
	if last := ErrorCodes[len(ErrorCodes)-1]; last != CodeInternal || CodeForStatus(0) != last {
		t.Errorf("ErrorCodes ends in %q: the last entry is the class unknown codes and statuses fall back to", last)
	}
	for _, c := range ErrorCodes {
		status := c.HTTPStatus()
		if status < 400 || status > 599 {
			t.Errorf("%s: status %d out of error range", c, status)
		}
		back := CodeForStatus(status)
		if c == CodeSessionNotFound {
			if back != CodeDatasetNotFound {
				t.Errorf("%s: round-trip = %s, want the documented 404 collapse", c, back)
			}
			continue
		}
		if back != c {
			t.Errorf("%s: round-trip through status %d = %s", c, status, back)
		}
	}
	if got := ErrorCode("mystery").HTTPStatus(); got != 500 {
		t.Errorf("unknown code status = %d, want 500", got)
	}
}

// declaredCodes parses api.go and returns every constant declared with type
// ErrorCode, by name.
func declaredCodes(t *testing.T) map[string]ErrorCode {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "api.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]ErrorCode{}
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "ErrorCode" {
				continue
			}
			for i, name := range vs.Names {
				v, err := strconv.Unquote(vs.Values[i].(*ast.BasicLit).Value)
				if err != nil {
					t.Fatalf("%s: %v", name.Name, err)
				}
				out[name.Name] = ErrorCode(v)
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("api.go declares no ErrorCode constants")
	}
	return out
}

func TestRecommendResponseDecode(t *testing.T) {
	raw := `{"best":"geo","hierarchies":[{"hierarchy":"geo","attr":"village","current":2.5,"best_score":-1,` +
		`"ranked":[{"group":["Ofla","Zata"],"predicted":{"mean":7.1},"repaired":6,"score":-6,"gain":1}]}]}`
	rr := &RecommendResponse{State: "geo:1", Cache: "miss", Recommendation: json.RawMessage(raw)}
	rec, err := rr.Decode()
	if err != nil {
		t.Fatal(err)
	}
	best := rec.BestResult()
	if best == nil || best.Attr != "village" || best.Ranked[0].Predicted["mean"] != 7.1 {
		t.Errorf("decoded = %+v", rec)
	}
	if (&Recommendation{Best: "gone"}).BestResult() != nil {
		t.Error("BestResult over missing hierarchy should be nil")
	}
	rr.Recommendation = json.RawMessage("{")
	if _, err := rr.Decode(); err == nil {
		t.Error("Decode accepted truncated JSON")
	}
}
