package factor

import (
	"testing"
)

func benchSources(b *testing.B, w int) []*Source {
	b.Helper()
	var srcs []*Source
	for h := 0; h < 3; h++ {
		srcs = append(srcs, benchChainSource(b, h, w))
	}
	return srcs
}

func benchChainSource(b *testing.B, h, w int) *Source {
	b.Helper()
	attrs := []string{name(h, 0), name(h, 1), name(h, 2)}
	var paths [][]string
	id := 0
	for p := 0; p < w/10; p++ {
		for m := 0; m < 2; m++ {
			for c := 0; c < 5; c++ {
				id++
				paths = append(paths, []string{
					valName(h, 0, p), valName(h, 1, p*2+m), valName(h, 2, id),
				})
			}
		}
	}
	src, err := NewSource(name(h, 99), attrs, paths)
	if err != nil {
		b.Fatal(err)
	}
	return src
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

func BenchmarkBuildChain(b *testing.B) {
	srcs := benchSources(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildChain(srcs[0], 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRowIterator(b *testing.B) {
	srcs := []*Source{benchChainSource(b, 0, 100), benchChainSource(b, 1, 100)}
	f, err := New(srcs, []int{3, 3})
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
