package datasets

import (
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
)

func TestGenerateCovidUSShape(t *testing.T) {
	ds := GenerateCovidUS(1)
	if ds.NumRows() != len(usStates)*CovidDays {
		t.Fatalf("rows = %d, want %d", ds.NumRows(), len(usStates)*CovidDays)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	// 51 states/DC plus 4 barely-reporting territories.
	if got := len(distinct(ds, "state")); got != 55 {
		t.Errorf("states = %d", got)
	}
	for _, v := range ds.Measure("confirmed") {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("bad confirmed value %v", v)
		}
	}
}

func TestGenerateCovidGlobalShape(t *testing.T) {
	ds := GenerateCovidGlobal(1)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	nc := 0
	for _, cs := range covidRegions {
		nc += len(cs)
	}
	if ds.NumRows() != nc*CovidDays {
		t.Fatalf("rows = %d, want %d", ds.NumRows(), nc*CovidDays)
	}
	if got := len(distinct(ds, "region")); got != 6 {
		t.Errorf("regions = %d", got)
	}
}

func TestIssueTablesMatchPaperCounts(t *testing.T) {
	us := USIssues()
	if len(us) != 16 {
		t.Fatalf("US issues = %d, want 16", len(us))
	}
	gl := GlobalIssues()
	if len(gl) != 14 {
		t.Fatalf("global issues = %d, want 14", len(gl))
	}
	detected := 0
	for _, i := range append(us, gl...) {
		if i.ExpectDetect {
			detected++
		}
	}
	if detected != 21 {
		t.Errorf("expected detections = %d, want 21 (Tables 1-2)", detected)
	}
	// Every issue must reference a real location/region.
	usSet := map[string]bool{}
	for _, s := range usStates {
		usSet[s] = true
	}
	for _, i := range us {
		if !usSet[i.Location] {
			t.Errorf("issue %s: unknown state %q", i.ID, i.Location)
		}
	}
	for _, i := range gl {
		countries, ok := covidRegions[i.Region]
		if !ok {
			t.Errorf("issue %s: unknown region %q", i.ID, i.Region)
			continue
		}
		found := false
		for _, c := range countries {
			if c == i.Location {
				found = true
			}
		}
		if !found {
			t.Errorf("issue %s: country %q not in region %q", i.ID, i.Location, i.Region)
		}
	}
}

func TestIssueApplyChangesTargetOnly(t *testing.T) {
	ds := GenerateCovidUS(2)
	issue := USIssues()[0] // Texas missing reports
	corrupted := issue.Apply(ds)
	states := ds.Dim("state")
	days := ds.Dim("day")
	before := ds.Measure("confirmed")
	after := corrupted.Measure("confirmed")
	for i := range before {
		isTarget := states[i] == issue.Location && days[i] == issue.DayName()
		if isTarget {
			if after[i] >= before[i]*0.5 {
				t.Errorf("missing reports should slash the value: %v → %v", before[i], after[i])
			}
		} else if after[i] != before[i] {
			t.Errorf("row %d (%s %s) changed unexpectedly", i, states[i], days[i])
		}
	}
}

func TestIssueApplyClasses(t *testing.T) {
	ds := GenerateCovidUS(3)
	get := func(dsv []float64, states, days []string, loc, d string) float64 {
		for i := range dsv {
			if states[i] == loc && days[i] == d {
				return dsv[i]
			}
		}
		t.Fatalf("missing row %s %s", loc, d)
		return 0
	}
	for _, issue := range USIssues() {
		c := issue.Apply(ds)
		before := get(ds.Measure(issue.Measure), ds.Dim("state"), ds.Dim("day"), issue.Location, issue.DayName())
		after := get(c.Measure(issue.Measure), c.Dim("state"), c.Dim("day"), issue.Location, issue.DayName())
		switch issue.Class {
		case MissingReports:
			if after >= before/2 {
				t.Errorf("issue %s: missing reports %v → %v", issue.ID, before, after)
			}
		case OverReported, WronglyReported, Backlog, DefinitionAltered:
			if after <= before {
				t.Errorf("issue %s: %v should increase %v → %v", issue.ID, issue.Class, before, after)
			}
		case Typo, SubtleError:
			if math.Abs(after-before) > before*0.05 {
				t.Errorf("issue %s: subtle error too large %v → %v", issue.ID, before, after)
			}
		case PrevalentSource:
			if after >= before {
				t.Errorf("issue %s: prevalent scale-down failed", issue.ID)
			}
		}
	}
}

func TestNullifiedIssueGoesNegative(t *testing.T) {
	ds := GenerateCovidGlobal(4)
	var nullified Issue
	for _, i := range GlobalIssues() {
		if i.Class == Nullified {
			nullified = i
		}
	}
	c := nullified.Apply(ds)
	countries := c.Dim("country")
	days := c.Dim("day")
	rec := c.Measure(nullified.Measure)
	for i := range rec {
		if countries[i] == nullified.Location && days[i] == nullified.DayName() {
			if rec[i] >= 0 {
				t.Errorf("nullified value = %v, want negative", rec[i])
			}
			return
		}
	}
	t.Fatal("nullified row not found")
}

func TestGenerateFIST(t *testing.T) {
	f := GenerateFIST(1)
	if err := f.DS.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(f.Study) != 22 {
		t.Fatalf("study complaints = %d, want 22", len(f.Study))
	}
	resolvable := 0
	for _, s := range f.Study {
		if s.ExpectResolve {
			resolvable++
		}
		if len(s.Steps) == 0 {
			t.Errorf("scenario %d has no steps", s.ID)
		}
	}
	if resolvable != 20 {
		t.Errorf("resolvable = %d, want 20", resolvable)
	}
	// Severity stays in the 1–10 reporting scale.
	for _, v := range f.DS.Measure("severity") {
		if v < 1 || v > 10 {
			t.Fatalf("severity %v out of scale", v)
		}
	}
	// Rainfall rows exist for every (village, year).
	villages := distinct(f.DS, "village")
	years := distinct(f.DS, "year")
	nv := len(villages) * len(years)
	if f.Rainfall.NumRows() != nv {
		t.Errorf("rainfall rows = %d, want %d", f.Rainfall.NumRows(), nv)
	}
}

func TestGenerateVote(t *testing.T) {
	v := GenerateVote(1)
	if err := v.DS.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(v.GeorgiaCounties) != 159 {
		t.Errorf("Georgia counties = %d, want 159", len(v.GeorgiaCounties))
	}
	if len(v.States) != 50 {
		t.Errorf("states = %d", len(v.States))
	}
	// 2016 aux has one row per county.
	if v.Aux2016.NumRows() != v.DS.NumRows() {
		t.Errorf("aux rows = %d, dataset rows = %d", v.Aux2016.NumRows(), v.DS.NumRows())
	}
	// Shares are within the clamp.
	for _, p := range v.DS.Measure("pct2020") {
		if p < 2 || p > 98 {
			t.Fatalf("pct2020 = %v", p)
		}
	}
}

func TestInjectMissingVotes(t *testing.T) {
	v := GenerateVote(2)
	target := v.GeorgiaCounties[:5]
	v2 := v.InjectMissingVotes(target)
	cc := v.DS.Dim("county")
	before := v.DS.Measure("votes2020")
	after := v2.DS.Measure("votes2020")
	hit := 0
	for i := range before {
		inTarget := false
		for _, c := range target {
			if cc[i] == c {
				inTarget = true
			}
		}
		if inTarget {
			hit++
			if math.Abs(after[i]-before[i]/2) > 1e-9 {
				t.Errorf("votes not halved for %s", cc[i])
			}
		} else if after[i] != before[i] {
			t.Errorf("untouched county %s changed", cc[i])
		}
	}
	if hit != 5 {
		t.Errorf("hit %d target counties, want 5", hit)
	}
}

func TestGenerateAbsentee(t *testing.T) {
	ds := GenerateAbsentee(1, 5000)
	if ds.NumRows() != 5000 {
		t.Fatalf("rows = %d", ds.NumRows())
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(distinct(ds, "party")); got != 6 {
		t.Errorf("parties = %d", got)
	}
	// Default row count matches the paper.
	full := GenerateAbsentee(1, 0)
	if full.NumRows() != 179_000 {
		t.Errorf("default rows = %d", full.NumRows())
	}
}

func TestGenerateCompas(t *testing.T) {
	ds := GenerateCompas(1, 8000)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	days := distinct(ds, "day")
	if len(days) > 704 {
		t.Errorf("days = %d, want ≤ 704", len(days))
	}
	if got := len(distinct(ds, "race")); got != 6 {
		t.Errorf("races = %d", got)
	}
	for _, s := range ds.Measure("score") {
		if s < 1 || s > 10 {
			t.Fatalf("score %v out of range", s)
		}
	}
}

func TestIssueDirectionsAreConsistent(t *testing.T) {
	for _, i := range append(USIssues(), GlobalIssues()...) {
		switch i.Class {
		case MissingReports, PrevalentSource, Nullified:
			if i.Direction != core.TooLow {
				t.Errorf("issue %s: %v should complain TooLow", i.ID, i.Class)
			}
		case OverReported, Backlog, DefinitionAltered, WronglyReported:
			if i.Direction != core.TooHigh {
				t.Errorf("issue %s: %v should complain TooHigh", i.ID, i.Class)
			}
		}
	}
}

// distinct returns the sorted distinct values of a dimension column.
func distinct(ds *data.Dataset, attr string) []string {
	dict, codes := ds.DimCodes(attr)
	seen := make([]bool, len(dict))
	for _, c := range codes {
		seen[c] = true
	}
	var out []string
	for c, ok := range seen {
		if ok {
			out = append(out, dict[c])
		}
	}
	sort.Strings(out)
	return out
}
