package reptile_test

// The facade must be a zero-cost veneer: everything reachable through it
// behaves byte-identically to driving internal/core directly. These tests
// pin that down for both load paths (CSV and .rst snapshot) and for the
// option plumbing.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/reptile"
)

const testCSV = "district,village,year,severity\n" +
	"Ofla,Adishim,1986,8\nOfla,Adishim,1987,7\nOfla,Zata,1986,2\nOfla,Zata,1987,7\n" +
	"Raya,Kukufto,1986,8\nRaya,Kukufto,1987,6\nRaya,Mehoni,1986,7\nRaya,Mehoni,1987,6\n"

const testHierarchies = "geo:district,village;time:year"

const testComplaint = "agg=mean measure=severity dir=low district=Ofla year=1986"

func writeTestCSV(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "drought.csv")
	if err := os.WriteFile(path, []byte(testCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// recommendJSON drives one complaint through a facade engine.
func recommendJSON(t *testing.T, eng *reptile.Engine) []byte {
	t.Helper()
	sess, err := eng.NewSession([]string{"district", "year"})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sess.Complain(testComplaint)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// directJSON computes the same recommendation on internal/core without the
// facade.
func directJSON(t *testing.T) []byte {
	t.Helper()
	hs, err := data.ParseHierarchySpec(testHierarchies)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := data.ReadCSV(strings.NewReader(testCSV), "drought", []string{"severity"}, hs)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(ds, core.Options{EMIterations: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession([]string{"district", "year"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.ParseComplaint(testComplaint)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sess.Recommend(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestOpenCSVMatchesCore(t *testing.T) {
	eng, err := reptile.Open(writeTestCSV(t),
		reptile.WithMeasures("severity"),
		reptile.WithHierarchies(testHierarchies),
		reptile.WithName("drought"),
		reptile.WithEMIterations(4),
		reptile.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := recommendJSON(t, eng), directJSON(t); !bytes.Equal(got, want) {
		t.Errorf("facade recommendation differs from internal/core:\nfacade: %s\ndirect: %s", got, want)
	}
}

func TestSaveAndReopenSnapshot(t *testing.T) {
	csvPath := writeTestCSV(t)
	eng, err := reptile.Open(csvPath,
		reptile.WithMeasures("severity"),
		reptile.WithHierarchies(testHierarchies),
		reptile.WithName("drought"),
		reptile.WithEMIterations(4),
		reptile.WithWorkers(1),
		reptile.WithCube())
	if err != nil {
		t.Fatal(err)
	}
	rstPath := filepath.Join(filepath.Dir(csvPath), "drought.rst")
	info, err := eng.Save(rstPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 8 || info.Dims != 3 || info.Measures != 1 {
		t.Errorf("snapshot info = %+v, want 8 rows, 3 dims, 1 measure", info)
	}
	if info.CubeLevels == 0 || info.CubeCells == 0 {
		t.Errorf("snapshot info = %+v, want a materialized cube", info)
	}

	reopened, err := reptile.Open(rstPath, reptile.WithEMIterations(4), reptile.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if name := reopened.Dataset().Name; name != "drought" {
		t.Errorf("reopened dataset name = %q", name)
	}
	if got, want := recommendJSON(t, reopened), directJSON(t); !bytes.Equal(got, want) {
		t.Errorf("snapshot recommendation differs from internal/core:\nsnapshot: %s\ndirect: %s", got, want)
	}
}

func TestOpenErrors(t *testing.T) {
	csvPath := writeTestCSV(t)
	cases := []struct {
		name string
		path string
		opts []reptile.Option
		want string
	}{
		{"missing measures", csvPath,
			[]reptile.Option{reptile.WithHierarchies(testHierarchies)}, "WithMeasures"},
		{"missing hierarchies", csvPath,
			[]reptile.Option{reptile.WithMeasures("severity")}, "WithHierarchies"},
		{"bad hierarchy spec", csvPath,
			[]reptile.Option{reptile.WithMeasures("severity"), reptile.WithHierarchies("nocolon")}, "bad hierarchy"},
		{"schema options on snapshot", filepath.Join(t.TempDir(), "x.rst"),
			[]reptile.Option{reptile.WithMeasures("severity")}, "carries its own"},
		{"name option on snapshot", filepath.Join(t.TempDir(), "x.rst"),
			[]reptile.Option{reptile.WithName("renamed")}, "carries its own"},
		{"nonexistent file", filepath.Join(t.TempDir(), "nope.csv"),
			[]reptile.Option{reptile.WithMeasures("m"), reptile.WithHierarchies("h:a")}, ""},
	}
	for _, tc := range cases {
		_, err := reptile.Open(tc.path, tc.opts...)
		if err == nil {
			t.Errorf("%s: Open succeeded, want error", tc.name)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestNewRejectsSchemaOptions(t *testing.T) {
	ds := reptile.NewDataset("d", []string{"a"}, []string{"m"},
		[]reptile.Hierarchy{{Name: "h", Attrs: []string{"a"}}})
	ds.AppendRowVals([]string{"x"}, []float64{1})
	if _, err := reptile.New(ds, reptile.WithMeasures("m")); err == nil {
		t.Error("New with WithMeasures succeeded, want error")
	}
	if _, err := reptile.New(ds, reptile.WithName("renamed")); err == nil {
		t.Error("New with WithName succeeded, want error")
	}
	if _, err := reptile.New(ds); err != nil {
		t.Errorf("New: %v", err)
	}
}

// TestInvalidInputsReturnErrors: a nil dataset and a complaint the engine
// cannot evaluate are errors that name what is wrong, never panics.
func TestInvalidInputsReturnErrors(t *testing.T) {
	recommend := func(c reptile.Complaint) error {
		eng, err := reptile.Open(writeTestCSV(t), reptile.WithMeasures("severity"), reptile.WithHierarchies(testHierarchies))
		if err != nil {
			t.Fatal(err)
		}
		sess, err := eng.NewSession([]string{"district", "year"})
		if err != nil {
			t.Fatal(err)
		}
		_, err = sess.Recommend(c)
		return err
	}
	tuple := reptile.Predicate{"district": "Ofla", "year": "1986"}
	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{"reptile.New(nil)", func() error { _, err := reptile.New(nil); return err }, "nil dataset"},
		{"core.NewEngine(nil)", func() error { _, err := core.NewEngine(nil, core.Options{}); return err }, "nil dataset"},
		{"unknown aggregate", func() error {
			return recommend(reptile.Complaint{Agg: "median", Measure: "severity", Tuple: tuple})
		}, `"median"`},
		{"unknown direction", func() error {
			return recommend(reptile.Complaint{Agg: reptile.Mean, Measure: "severity", Tuple: tuple, Direction: 9})
		}, "direction 9"},
	}
	for _, tc := range cases {
		if err := tc.run(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.want)
		}
	}
}

// TestHierarchyOptionsCompose pins that the spec and structured hierarchy
// options append rather than overwrite, in either order.
func TestHierarchyOptionsCompose(t *testing.T) {
	geo := reptile.Hierarchy{Name: "geo", Attrs: []string{"district", "village"}}
	for _, opts := range [][]reptile.Option{
		{reptile.WithHierarchyList(geo), reptile.WithHierarchies("time:year")},
		{reptile.WithHierarchies("time:year"), reptile.WithHierarchyList(geo)},
	} {
		eng, err := reptile.Open(writeTestCSV(t),
			append([]reptile.Option{reptile.WithMeasures("severity"), reptile.WithEMIterations(4)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(eng.Dataset().Hierarchies); n != 2 {
			t.Errorf("combined hierarchy options yield %d hierarchies, want 2", n)
		}
	}
}

func TestSessionDrillAndState(t *testing.T) {
	eng, err := reptile.Open(writeTestCSV(t),
		reptile.WithMeasures("severity"),
		reptile.WithHierarchies(testHierarchies),
		reptile.WithEMIterations(4))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession([]string{"district", "year"})
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.StateKey(); got != "geo:1|time:1" {
		t.Errorf("state = %q", got)
	}
	if got := strings.Join(sess.GroupBy(), ","); got != "district,year" {
		t.Errorf("group-by = %q", got)
	}
	if err := sess.Drill("geo"); err != nil {
		t.Fatal(err)
	}
	if got := sess.StateKey(); got != "geo:2|time:1" {
		t.Errorf("state after drill = %q", got)
	}
	if err := sess.Drill("nope"); err == nil {
		t.Error("drilling an unknown hierarchy succeeded")
	}
}
