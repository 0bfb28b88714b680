package factor

import (
	"testing"

	"repro/internal/cube"
	"repro/internal/data"
)

// benchDataset is a validated, cubed dataset over hierarchies of three
// levels, each of w leaves: w/10 roots of two children of five leaves. Row i
// takes every hierarchy's i'th leaf, so each hierarchy has w paths.
func benchDataset(b *testing.B, hierarchies, w int) *data.Dataset {
	b.Helper()
	var hs []data.Hierarchy
	var dims []string
	for h := range hierarchies {
		attrs := []string{name(h, 0), name(h, 1), name(h, 2)}
		hs, dims = append(hs, data.Hierarchy{Name: name(h, 99), Attrs: attrs}), append(dims, attrs...)
	}
	ds := data.New("bench", dims, []string{"m"}, hs)
	vals := make([]string, len(dims))
	for id := range w / 10 * 10 {
		for h := range hierarchies {
			p := id / 10
			vals[3*h], vals[3*h+1], vals[3*h+2] = valName(h, 0, p), valName(h, 1, id/5), valName(h, 2, id+1)
		}
		ds.AppendRowVals(vals, []float64{float64(id % 7)})
	}
	if err := ds.Validate(); err != nil {
		b.Fatal(err)
	}
	c, err := cube.Build(ds)
	if err != nil {
		b.Fatal(err)
	}
	ds.SetRollup(c)
	return ds
}

// benchSources returns every hierarchy's source over benchDataset.
func benchSources(b *testing.B, hierarchies, w int) []*Source {
	b.Helper()
	ds := benchDataset(b, hierarchies, w)
	srcs := make([]*Source, hierarchies)
	for h, hier := range ds.Hierarchies {
		var err error
		if srcs[h], err = SourceFromDataset(ds, hier); err != nil {
			b.Fatal(err)
		}
	}
	return srcs
}

func name(h, l int) string { return "h" + string(rune('a'+h)) + "_a" + string(rune('0'+l)) }
func valName(h, l, i int) string {
	return name(h, l) + "_" + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [12]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

// BenchmarkSourceFromDataset builds a 5,000-path hierarchy's source from the
// cube's group-by over its attributes.
func BenchmarkSourceFromDataset(b *testing.B) {
	ds := benchDataset(b, 1, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SourceFromDataset(ds, ds.Hierarchies[0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildChain(b *testing.B) {
	srcs := benchSources(b, 1, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildChain(srcs[0], 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRowIterator(b *testing.B) {
	f, err := New(benchSources(b, 2, 100), []int{3, 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := f.Rows()
		for it.Next() != nil {
		}
	}
}
