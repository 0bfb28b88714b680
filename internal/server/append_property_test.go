package server

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/reptile/api"
)

// The schema of the random append bodies: a two-level hierarchy, a flat one,
// a dimension in no hierarchy, and two measures.
var (
	propDims        = []string{"region", "district", "year", "tag"}
	propMeasures    = []string{"m1", "m2"}
	propHierarchies = "geo:region,district;time:year"
)

// propRow is one generated row, by column name.
type propRow struct {
	dims     map[string]string
	measures map[string]float64
}

// propValue is entry i of attribute attr's value pool, some entries holding
// CSV-hostile characters (commas, quotes, spaces, a newline).
func propValue(attr string, i int) string {
	hostile := []string{"", ",", `"`, ` `, "\n", "é", `""`, ", \""}
	v := fmt.Sprintf("%s%d%s", attr, i, hostile[i%len(hostile)])
	if attr == "tag" && i%3 == 0 {
		v = "" // the empty value is a value too
	}
	return v
}

// propRows generates n rows drawing each attribute's values from its first
// lim pool entries, so values repeat, and a larger lim draws new ones.
func propRows(rng *rand.Rand, n, lim int) []propRow {
	rows := make([]propRow, n)
	for i := range rows {
		// A district's region is fixed by the district's index, so the FD
		// holds across every body, whatever its pool.
		district := rng.Intn(lim)
		region := propValue("region", district/3)
		r := propRow{dims: map[string]string{
			"region":   region,
			"district": propValue("district", district) + "@" + region,
			"year":     strconv.Itoa(1980 + rng.Intn(lim)),
			"tag":      propValue("tag", rng.Intn(lim)),
		}, measures: map[string]float64{}}
		for _, m := range propMeasures {
			var v float64
			switch rng.Intn(5) {
			case 0:
				v = float64(rng.Intn(100) - 50)
			case 1:
				v = rng.NormFloat64() * 1e3
			case 2:
				v = rng.Float64() * 1e-300
			case 3:
				v = math.Copysign(0, -1)
			default:
				v = rng.ExpFloat64() * 1e12
			}
			r.measures[m] = v
		}
		rows[i] = r
	}
	return rows
}

// propField renders one CSV field, quoting it when it must be and, at
// random, when it need not be.
func propField(rng *rand.Rand, v string) string {
	if strings.ContainsAny(v, ",\"\n") || v == "" || rng.Intn(3) == 0 {
		return `"` + strings.ReplaceAll(v, `"`, `""`) + `"`
	}
	return v
}

// propCSV renders rows under a header in the given column order. Measures
// are spelled in one of several exact float formats.
func propCSV(rng *rand.Rand, header []string, rows []propRow) string {
	var b strings.Builder
	for i, c := range header {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(propField(rng, c))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		for i, c := range header {
			if i > 0 {
				b.WriteByte(',')
			}
			if v, ok := r.measures[c]; ok {
				b.WriteString(strconv.FormatFloat(v, "gef"[rng.Intn(3)], -1, 64))
			} else {
				b.WriteString(propField(rng, r.dims[c]))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// storeRows passes generated rows in the snapshot's column order.
func storeRows(snap *store.Snapshot, rows []propRow) []store.Row {
	out := make([]store.Row, len(rows))
	for i, r := range rows {
		out[i] = store.Row{Dims: make([]string, len(snap.Dims)), Measures: make([]float64, len(snap.Measures))}
		for ci, c := range snap.Dims {
			out[i].Dims[ci] = r.dims[c.Name]
		}
		for mi, m := range snap.Measures {
			out[i].Measures[mi] = r.measures[m.Name]
		}
	}
	return out
}

// sameColumns reports where two snapshots' columns differ: names,
// dictionaries, codes and measure bits, not cubes.
func sameColumns(a, b *store.Snapshot) error {
	if a.NumRows() != b.NumRows() || len(a.Dims) != len(b.Dims) || len(a.Measures) != len(b.Measures) {
		return fmt.Errorf("shape %d rows %d/%d columns, want %d rows %d/%d",
			a.NumRows(), len(a.Dims), len(a.Measures), b.NumRows(), len(b.Dims), len(b.Measures))
	}
	for ci, c := range a.Dims {
		o := b.Dims[ci]
		if c.Name != o.Name || !slices.Equal(c.Dict, o.Dict) || !slices.Equal(c.Codes, o.Codes) {
			return fmt.Errorf("dimension %q: dict %q codes %v, want %q: dict %q codes %v", c.Name, c.Dict, c.Codes, o.Name, o.Dict, o.Codes)
		}
	}
	for mi, m := range a.Measures {
		o := b.Measures[mi]
		if m.Name != o.Name || len(m.Values) != len(o.Values) {
			return fmt.Errorf("measure %q: %d values, want %q: %d", m.Name, len(m.Values), o.Name, len(o.Values))
		}
		for i, v := range m.Values {
			if math.Float64bits(v) != math.Float64bits(o.Values[i]) {
				return fmt.Errorf("measure %q row %d: %v, want %v", m.Name, i, v, o.Values[i])
			}
		}
	}
	return nil
}

// TestAppendBodyMatchesEncodeBatchAndOneLoad: over random CSV bodies (quoted
// fields, repeated and new values, shuffled column order), an HTTP append
// encodes exactly as store.EncodeBatch does over the same rows, and
// registering A then appending B yields the columns registering A∪B in one
// CSV does — dictionaries in first-appearance order, codes, measure bits.
func TestAppendBodyMatchesEncodeBatchAndOneLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for it := 0; it < 40; it++ {
		s, ts := newTestServer(t, Config{})
		lim := 3 + rng.Intn(6)
		a := propRows(rng, 1+rng.Intn(12), lim)
		b := propRows(rng, 1+rng.Intn(12), 2*lim) // draws values A never saw
		header := append(slices.Clone(propDims), propMeasures...)
		rng.Shuffle(len(header), func(i, j int) { header[i], header[j] = header[j], header[i] })
		bHeader := slices.Clone(header)
		rng.Shuffle(len(bHeader), func(i, j int) { bHeader[i], bHeader[j] = bHeader[j], bHeader[i] })

		reg := func(name, csv string) {
			register(t, ts.URL, api.RegisterDatasetRequest{
				Name: name, CSV: csv, Measures: propMeasures, Hierarchies: propHierarchies, EMIterations: 1,
			})
		}
		reg("a", propCSV(rng, header, a))
		base := entry(t, s, "a").ds.Version().Set.Schema()
		code, body := post(t, ts.URL+"/v1/datasets/a/append", api.AppendRequest{CSV: propCSV(rng, bHeader, b)})
		if code != http.StatusOK {
			t.Fatalf("iteration %d: append: %d %s", it, code, body)
		}
		got := entry(t, s, "a").ds.Version().Set.Schema()

		// (a) the HTTP append against EncodeBatch over the same rows.
		batch, err := store.EncodeBatch(base, storeRows(base, b))
		if err != nil {
			t.Fatalf("iteration %d: EncodeBatch: %v", it, err)
		}
		want, err := batch.Extend(base)
		if err != nil {
			t.Fatalf("iteration %d: Extend: %v", it, err)
		}
		if err := sameColumns(got, want); err != nil {
			t.Fatalf("iteration %d: HTTP append vs EncodeBatch: %v", it, err)
		}

		// (b) A then B against A∪B in one CSV.
		reg("ab", propCSV(rng, header, append(slices.Clone(a), b...)))
		if err := sameColumns(got, entry(t, s, "ab").ds.Version().Set.Schema()); err != nil {
			t.Fatalf("iteration %d: register A + append B vs register A∪B: %v", it, err)
		}
	}
}
