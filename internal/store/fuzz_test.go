package store

import (
	"bytes"
	"os"
	"testing"
)

// FuzzOpenSnapshot throws arbitrary bytes at both snapshot decoders, eager
// and mapped. The contract under test: they return an error on any input
// they dislike — they never panic, and anything they do accept must also
// re-materialize into a Dataset without panicking, and a cube it carries
// must answer every lattice level's group-by and every hierarchy's paths
// without panicking (a mapped cube's cell tables are trusted once validated).
// Seeds cover every on-disk shape the writers produce (v2, v2 with a cube
// section, a sharded container), a hand-built v1 envelope, a file with a
// version-1 cube section, plus a truncation of a valid file (the likeliest
// real-world corruption).
func FuzzOpenSnapshot(f *testing.F) {
	snap := FromDataset(demoDataset())
	var v2 bytes.Buffer
	if err := snap.Write(&v2); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())

	f.Add(v1Envelope(magic[:]))

	cubed := FromDataset(demoDataset())
	if err := cubed.BuildCube(); err != nil {
		f.Fatal(err)
	}
	var v2c bytes.Buffer
	if err := cubed.Write(&v2c); err != nil {
		f.Fatal(err)
	}
	f.Add(v2c.Bytes())

	var sh bytes.Buffer
	if err := WriteSharded(&sh, "district", splitShards(f, demoDataset7(), 2)); err != nil {
		f.Fatal(err)
	}
	f.Add(sh.Bytes())

	f.Add(v2.Bytes()[:v2.Len()/2])
	f.Add([]byte("RSTSNAP"))
	f.Add([]byte{})

	old, err := os.ReadFile("testdata/cube_v1.rst")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)

	f.Fuzz(func(t *testing.T, b []byte) {
		if s, err := Open(bytes.NewReader(b)); err == nil && s != nil {
			if _, err := s.Dataset(); err != nil {
				t.Fatalf("accepted snapshot failed to materialize: %v", err)
			}
		}
		// The eager decoders, then the mapped ones over the same bytes,
		// wherever the fuzzer's buffer happens to sit: views or eager
		// fallback, never a fault.
		for _, m := range []*mapping{nil, {data: b}} {
			_, shards, err := openShards(b, m, false)
			if err != nil {
				continue
			}
			for _, s := range shards {
				if _, err := s.Dataset(); err != nil {
					t.Fatalf("accepted shard (mapped=%v) failed to materialize: %v", m != nil, err)
				}
				c := s.Cube()
				if c == nil {
					continue
				}
				for _, attrs := range latticeGroupings(s.Hierarchies) {
					for _, ms := range s.Measures {
						c.GroupBy(attrs, ms.Name)
					}
				}
				for _, h := range s.Hierarchies {
					c.HierarchyPaths(h)
				}
			}
		}
	})
}
