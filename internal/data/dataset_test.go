package data

import (
	"bytes"
	"sort"
	"strings"
	"sync"
	"testing"
)

// demo builds the running-example dataset from the paper: a geography
// hierarchy (district → village) and a time hierarchy (year), with a
// severity measure.
func demo() *Dataset {
	h := []Hierarchy{
		{Name: "geo", Attrs: []string{"district", "village"}},
		{Name: "time", Attrs: []string{"year"}},
	}
	d := New("drought", []string{"district", "village", "year"}, []string{"severity"}, h)
	rows := []struct {
		dist, vil, yr string
		sev           float64
	}{
		{"Ofla", "Adishim", "1986", 8},
		{"Ofla", "Adishim", "1986", 9},
		{"Ofla", "Darube", "1986", 2},
		{"Ofla", "Zata", "1986", 1},
		{"Ofla", "Adishim", "1987", 7},
		{"Raya", "Kukufto", "1986", 6},
	}
	for _, r := range rows {
		d.AppendRowVals([]string{r.dist, r.vil, r.yr}, []float64{r.sev})
	}
	return d
}

func TestAppendAndAccess(t *testing.T) {
	d := demo()
	if d.NumRows() != 6 {
		t.Fatalf("NumRows = %d, want 6", d.NumRows())
	}
	if got := d.Dim("village")[2]; got != "Darube" {
		t.Errorf("village[2] = %q", got)
	}
	if got := d.Measure("severity")[3]; got != 1 {
		t.Errorf("severity[3] = %v", got)
	}
	if !d.HasDim("district") || d.HasDim("bogus") {
		t.Error("HasDim wrong")
	}
	if !d.HasMeasure("severity") || d.HasMeasure("bogus") {
		t.Error("HasMeasure wrong")
	}
}

func TestAppendRowMap(t *testing.T) {
	d := New("x", []string{"a"}, []string{"m"}, nil)
	d.AppendRow(map[string]string{"a": "v"}, map[string]float64{"m": 1.5})
	if d.NumRows() != 1 || d.Dim("a")[0] != "v" || d.Measure("m")[0] != 1.5 {
		t.Error("AppendRow failed")
	}
}

func TestAppendRowMissingColumnPanics(t *testing.T) {
	d := New("x", []string{"a"}, nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.AppendRow(map[string]string{}, nil)
}

func TestWhereAndPredicate(t *testing.T) {
	d := demo()
	sub := d.Where(Predicate{"district": "Ofla", "year": "1986"})
	if sub.NumRows() != 4 {
		t.Fatalf("Where rows = %d, want 4", sub.NumRows())
	}
	all := d.Where(nil)
	if all.NumRows() != d.NumRows() {
		t.Errorf("empty predicate should return all rows")
	}
	none := d.Where(Predicate{"district": "Nowhere"})
	if none.NumRows() != 0 {
		t.Errorf("non-matching predicate rows = %d", none.NumRows())
	}
}

func TestSelectWithDuplicates(t *testing.T) {
	d := demo()
	s := d.Select([]int{0, 0, 5})
	if s.NumRows() != 3 {
		t.Fatalf("Select rows = %d", s.NumRows())
	}
	if s.Dim("village")[0] != s.Dim("village")[1] {
		t.Error("duplicated row differs")
	}
	if s.Dim("district")[2] != "Raya" {
		t.Error("wrong row selected")
	}
}

// Distinct returns the sorted distinct values of a dimension column (a test
// helper: no shipped code asks for them).
func (d *Dataset) Distinct(attr string) []string {
	col := d.dim(attr)
	seen := make([]bool, len(col.dict))
	for _, c := range col.codes {
		seen[c] = true
	}
	out := make([]string, 0, len(col.dict))
	for c, present := range seen {
		if present {
			out = append(out, col.dict[c])
		}
	}
	sort.Strings(out)
	return out
}

func TestDistinctSorted(t *testing.T) {
	d := demo()
	got := d.Distinct("village")
	want := []string{"Adishim", "Darube", "Kukufto", "Zata"}
	if len(got) != len(want) {
		t.Fatalf("Distinct = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Distinct = %v, want %v", got, want)
		}
	}
}

func TestValidateOK(t *testing.T) {
	if err := demo().Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// TestValidateConcurrently: goroutines validating one dataset, and keying
// tuple indexes over it, share the memory of verified FDs (run under -race),
// and a later row write clears it.
func TestValidateConcurrently(t *testing.T) {
	d := demo()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := d.Validate(); err != nil {
				t.Error(err)
			}
			d.NewTupleIndex([]string{"district", "village"}, d.NumRows()).AddRows(0, d.NumRows(), make([]int32, d.NumRows()))
		}()
	}
	wg.Wait()
	d.AppendRowVals([]string{"Raya", "Adishim", "1986"}, []float64{5})
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "FD violation") {
		t.Fatalf("Validate after an FD-breaking append: %v", err)
	}
}

// TestValidateShards: shards that each satisfy village → district but file
// one village under two districts between them fail as their union does, and
// shards that agree are validated together and record the FDs on each.
func TestValidateShards(t *testing.T) {
	d := demo()
	d.AppendRowVals([]string{"Raya", "Adishim", "1986"}, []float64{5})
	shards := []*Dataset{d.Select([]int{0, 1, 2, 3, 4}), d.Select([]int{5, 6})}
	for si, s := range shards {
		if err := s.Clone().Validate(); err != nil {
			t.Fatalf("test premise: shard %d on its own: %v", si, err)
		}
	}
	if err := ValidateShards(shards); err == nil || !strings.Contains(err.Error(), `hierarchy "geo": FD violation`) {
		t.Fatalf("ValidateShards over disagreeing shards: %v", err)
	}
	agree := []*Dataset{d.Select([]int{0, 1, 2}), d.Select([]int{3, 4})}
	if err := ValidateShards(agree); err != nil {
		t.Fatal(err)
	}
	for si, s := range agree {
		if _, ok := s.fds.Load([2]string{"village", "district"}); !ok {
			t.Errorf("shard %d does not record village → district", si)
		}
	}
	other := demo()
	other.AppendRowVals([]string{"Ofla", "Mekelle", "1988"}, []float64{1}) // a longer village dictionary
	if err := ValidateShards([]*Dataset{agree[0], other}); err == nil || !strings.Contains(err.Error(), "does not share") {
		t.Fatalf("ValidateShards over unshared dictionaries: %v", err)
	}
}

func TestValidateFDViolation(t *testing.T) {
	d := demo()
	// The same village under two districts violates village → district.
	d.AppendRowVals([]string{"Raya", "Adishim", "1986"}, []float64{5})
	if err := d.Validate(); err == nil {
		t.Error("expected FD violation error")
	} else if !strings.Contains(err.Error(), "FD violation") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestValidateUnknownAttr(t *testing.T) {
	d := New("x", []string{"a"}, nil, []Hierarchy{{Name: "h", Attrs: []string{"missing"}}})
	if err := d.Validate(); err == nil {
		t.Error("expected unknown-attribute error")
	}
}

func TestValidateSharedAttr(t *testing.T) {
	d := New("x", []string{"a"}, nil, []Hierarchy{
		{Name: "h1", Attrs: []string{"a"}},
		{Name: "h2", Attrs: []string{"a"}},
	})
	if err := d.Validate(); err == nil {
		t.Error("expected shared-attribute error")
	}
}

func TestValidateEmptyHierarchy(t *testing.T) {
	d := New("x", []string{"a"}, nil, []Hierarchy{{Name: "h"}})
	if err := d.Validate(); err == nil {
		t.Error("expected empty-hierarchy error")
	}
}

func TestHierarchyHelpers(t *testing.T) {
	h := Hierarchy{Name: "geo", Attrs: []string{"district", "village"}}
	if !h.Contains("village") || h.Contains("year") {
		t.Error("Contains wrong")
	}
	if h.Level("district") != 0 || h.Level("village") != 1 || h.Level("x") != -1 {
		t.Error("Level wrong")
	}
	d := demo()
	if got, ok := d.HierarchyOf("village"); !ok || got.Name != "geo" {
		t.Error("HierarchyOf wrong")
	}
	if _, ok := d.HierarchyOf("bogus"); ok {
		t.Error("HierarchyOf found bogus attr")
	}
}

func TestKeys(t *testing.T) {
	key := EncodeKey([]string{"a", "b"})
	if vals := strings.Split(key, keySep); len(vals) != 2 || vals[0] != "a" || vals[1] != "b" {
		t.Errorf("key round trip = %v", vals)
	}
	d := demo()
	if got := d.RowKey(0, []string{"district", "year"}); got != EncodeKey([]string{"Ofla", "1986"}) {
		t.Errorf("RowKey = %q", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	d := demo()
	c := d.Clone()
	c.AppendRowVals([]string{"X", "Y", "1999"}, []float64{1})
	if d.NumRows() == c.NumRows() {
		t.Error("Clone shares row storage")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := demo()
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "drought", []string{"severity"}, d.Hierarchies)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != d.NumRows() {
		t.Fatalf("round trip rows = %d, want %d", back.NumRows(), d.NumRows())
	}
	for i := 0; i < d.NumRows(); i++ {
		if back.Dim("village")[i] != d.Dim("village")[i] {
			t.Fatalf("row %d village mismatch", i)
		}
		if back.Measure("severity")[i] != d.Measure("severity")[i] {
			t.Fatalf("row %d severity mismatch", i)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("a,m\nx,notanumber\n"), "t", []string{"m"}, nil); err == nil {
		t.Error("expected parse error")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\nx,y\n"), "t", []string{"m"}, nil); err == nil {
		t.Error("expected missing-measure error")
	}
	if _, err := ReadCSV(strings.NewReader(""), "t", nil, nil); err == nil {
		t.Error("expected header error")
	}
}

func TestReadCSVRejectsNonFiniteMeasures(t *testing.T) {
	// strconv.ParseFloat accepts these spellings; ReadCSV must not, or they
	// silently poison every downstream Sum/SumSq and model fit.
	for _, bad := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "Infinity"} {
		csv := "a,m\nx,1\ny," + bad + "\n"
		_, err := ReadCSV(strings.NewReader(csv), "t", []string{"m"}, nil)
		if err == nil {
			t.Errorf("measure %q: expected non-finite error", bad)
			continue
		}
		if !strings.Contains(err.Error(), "line 3") {
			t.Errorf("measure %q: error %q does not name line 3", bad, err)
		}
	}
	// Finite values keep loading.
	if _, err := ReadCSV(strings.NewReader("a,m\nx,1e300\n"), "t", []string{"m"}, nil); err != nil {
		t.Errorf("finite measure rejected: %v", err)
	}
}

func TestReadCSVRejectsDuplicateHeader(t *testing.T) {
	// A duplicate column name would silently clobber the earlier column in
	// the name-keyed dims map.
	_, err := ReadCSV(strings.NewReader("a,b,a,m\nx,y,z,1\n"), "t", []string{"m"}, nil)
	if err == nil {
		t.Fatal("expected duplicate-header error")
	}
	if !strings.Contains(err.Error(), `duplicate column "a"`) {
		t.Errorf("error %q does not name the duplicate column", err)
	}
	// Duplicate measures are rejected too.
	if _, err := ReadCSV(strings.NewReader("a,m,m\nx,1,2\n"), "t", []string{"m"}, nil); err == nil {
		t.Error("expected duplicate-measure-header error")
	}
}

func TestReadCSVValidatesHierarchies(t *testing.T) {
	csv := "district,village,year,severity\nOfla,Adishim,1986,8\n"
	// A hierarchy naming a column absent from the CSV fails at load time.
	bad := []Hierarchy{{Name: "geo", Attrs: []string{"district", "hamlet"}}}
	if _, err := ReadCSV(strings.NewReader(csv), "t", []string{"severity"}, bad); err == nil {
		t.Error("expected unknown-attribute error at load time")
	} else if !strings.Contains(err.Error(), "hamlet") {
		t.Errorf("error %q does not name the missing attribute", err)
	}
	// FD violations in the data fail at load time too.
	fdCSV := "district,village,year,severity\nOfla,Zata,1986,8\nRaya,Zata,1986,2\n"
	good := []Hierarchy{{Name: "geo", Attrs: []string{"district", "village"}}, {Name: "time", Attrs: []string{"year"}}}
	if _, err := ReadCSV(strings.NewReader(fdCSV), "t", []string{"severity"}, good); err == nil {
		t.Error("expected FD violation at load time")
	}
	// No hierarchies (auxiliary tables) still load without validation.
	if _, err := ReadCSV(strings.NewReader(csv), "t", []string{"severity"}, nil); err != nil {
		t.Errorf("aux-style load failed: %v", err)
	}
}

func TestFromColumns(t *testing.T) {
	h := []Hierarchy{{Name: "geo", Attrs: []string{"district"}}}
	district := DimColumn{Name: "district", Dict: []string{"Ofla", "Raya"}, Codes: []uint32{0, 1, 0}}
	d, err := FromColumns("t", []DimColumn{district}, []MeasureColumn{{Name: "m", Values: []float64{1, 2, 3}}}, h)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != 3 {
		t.Fatalf("rows = %d", d.NumRows())
	}
	if got := d.Dim("district"); got[0] != "Ofla" || got[1] != "Raya" || got[2] != "Ofla" {
		t.Errorf("materialized column = %v", got)
	}
	if dict, codes := d.DimCodes("district"); len(dict) != 2 || len(codes) != 3 {
		t.Errorf("DimCodes = %v %v", dict, codes)
	}
	// Errors: out-of-range code, length mismatch — also after an empty first
	// column, which pins the row count at zero.
	if _, err := FromColumns("t", []DimColumn{{Name: "district", Dict: []string{"a"}, Codes: []uint32{0, 7}}}, nil, nil); err == nil {
		t.Error("expected out-of-range code error")
	}
	if _, err := FromColumns("t", []DimColumn{{Name: "district", Dict: []string{"a"}, Codes: []uint32{0, 0}}},
		[]MeasureColumn{{Name: "m", Values: []float64{1}}}, nil); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := FromColumns("t", []DimColumn{{Name: "district"}}, []MeasureColumn{{Name: "m", Values: []float64{1, 2}}}, nil); err == nil {
		t.Error("expected length-mismatch error after empty first column")
	}
	// Appending interns against the adopted dictionary without writing into
	// the caller's arrays.
	d.AppendRowVals([]string{"Tigray"}, []float64{4})
	d.AppendRowVals([]string{"Raya"}, []float64{5})
	dict, codes := d.DimCodes("district")
	if len(dict) != 3 || dict[2] != "Tigray" || len(codes) != 5 || codes[3] != 2 || codes[4] != 1 {
		t.Errorf("after append: dict %v codes %v", dict, codes)
	}
	if len(district.Dict) != 2 || len(district.Codes) != 3 {
		t.Errorf("append grew the caller's column: %v %v", district.Dict, district.Codes)
	}
}

func TestCodesSurviveSelectAndClone(t *testing.T) {
	d, err := FromColumns("t", []DimColumn{{Name: "district", Dict: []string{"a", "b"}, Codes: []uint32{0, 1, 1, 0}}},
		[]MeasureColumn{{Name: "m", Values: []float64{1, 2, 3, 4}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sub := d.Select([]int{1, 2})
	dict, codes := sub.DimCodes("district")
	if len(dict) != 2 || len(codes) != 2 || dict[codes[0]] != "b" || dict[codes[1]] != "b" {
		t.Errorf("Select codes = %v %v", dict, codes)
	}
	if got := sub.Distinct("district"); len(got) != 1 || got[0] != "b" {
		t.Errorf("Distinct over a subset = %v, want only the used value", got)
	}
	cl := d.Clone()
	cl.AppendRowVals([]string{"c"}, []float64{5})
	if dict, codes := cl.DimCodes("district"); len(dict) != 3 || len(codes) != 5 {
		t.Errorf("Clone append: %v %v", dict, codes)
	}
	if dict, codes := d.DimCodes("district"); len(dict) != 2 || len(codes) != 4 {
		t.Errorf("appending to the clone changed the source: %v %v", dict, codes)
	}
}

func TestCodedFDCheck(t *testing.T) {
	// Same FD violation as TestValidateFDViolation, over bulk-loaded columns.
	h := []Hierarchy{{Name: "geo", Attrs: []string{"district", "village"}}}
	d, err := FromColumns("t", []DimColumn{
		{Name: "district", Dict: []string{"Ofla", "Raya"}, Codes: []uint32{0, 1}},
		{Name: "village", Dict: []string{"Zata"}, Codes: []uint32{0, 0}},
	}, nil, h)
	if err != nil {
		t.Fatal(err)
	}
	err = d.Validate()
	if err == nil || !strings.Contains(err.Error(), "FD violation") {
		t.Fatalf("err = %v, want FD violation", err)
	}
	if !strings.Contains(err.Error(), `"Zata"`) {
		t.Errorf("error %q does not name the violating value", err)
	}
}

// TestKeySeparatorRejected pins the admission rule behind EncodeKey: were a
// value allowed to contain the separator, ("a\x1fb","c") and ("a","b\x1fc")
// would share one group key.
func TestKeySeparatorRejected(t *testing.T) {
	if EncodeKey([]string{"a\x1fb", "c"}) != EncodeKey([]string{"a", "b\x1fc"}) {
		t.Fatal("test premise: the two tuples no longer collide")
	}
	_, err := ReadCSV(strings.NewReader("x,y,m\na,c,1\n\"a\x1fb\",c,2\n"), "t", []string{"m"}, nil)
	if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), `"x"`) {
		t.Errorf("ReadCSV err = %v, want a line 3 / column x rejection", err)
	}
	d := New("t", []string{"x", "y"}, []string{"m"}, nil)
	d.AppendRowVals([]string{"a", "c"}, []float64{1})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AppendRowVals admitted a value containing the key separator")
			}
		}()
		d.AppendRowVals([]string{"a", "b\x1fc"}, []float64{2})
	}()
	if d.NumRows() != 1 || len(d.Dim("x")) != 1 || len(d.Dim("y")) != 1 {
		t.Errorf("rejected row left a trace: %d rows, x %v, y %v", d.NumRows(), d.Dim("x"), d.Dim("y"))
	}
}

func TestSetDimValue(t *testing.T) {
	d := demo()
	d.SetDimValue("year", 0, "1987")
	d.SetDimValue("year", 1, "2001")
	if got := d.Dim("year"); got[0] != "1987" || got[1] != "2001" || got[2] != "1986" {
		t.Errorf("year = %v", got)
	}
	if got := d.Distinct("year"); len(got) != 3 {
		t.Errorf("Distinct = %v", got)
	}
}

func TestParseHierarchySpec(t *testing.T) {
	hs, err := ParseHierarchySpec("geo:region,district,village; time:year")
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 2 || hs[0].Name != "geo" || len(hs[0].Attrs) != 3 || hs[1].Attrs[0] != "year" {
		t.Errorf("parsed = %+v", hs)
	}
	for _, bad := range []string{"", "noattrs", "geo:", ":a,b"} {
		if _, err := ParseHierarchySpec(bad); err == nil {
			t.Errorf("spec %q: expected error", bad)
		}
	}
}
