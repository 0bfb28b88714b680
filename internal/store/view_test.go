package store

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// TestElemsDecodesMisalignedPayloads: where view refuses a payload — here
// one misaligned by a byte — elems decodes it element by element onto the
// heap, into the same uint32, uint64 and float64 values it serves as a view
// of the aligned payload. On a little-endian host no open of a file reaches
// that decoder: a whole-file read and a mapping both start 8-aligned.
func TestElemsDecodesMisalignedPayloads(t *testing.T) {
	const n = 16 // 8-byte elements
	raw := make([]byte, 8*n)
	rand.New(rand.NewSource(1)).Read(raw)
	aligned := make([]byte, len(raw)) // the allocator places this on an 8-byte boundary
	copy(aligned, raw)
	misaligned := make([]byte, len(raw)+1)[1:]
	copy(misaligned, raw)
	read := func(b []byte) ([]uint32, []uint64, []float64) {
		d := &decoder{b: b}
		u32 := elems[uint32](d, 2*n)
		d.off = 0
		u64 := elems[uint64](d, n)
		d.off = 0
		return u32, u64, elems[float64](d, n)
	}
	u32a, u64a, fa := read(aligned)
	u32m, u64m, fm := read(misaligned)
	for i := 0; i < 2*n; i++ {
		if want := binary.LittleEndian.Uint32(raw[4*i:]); u32a[i] != want || u32m[i] != want {
			t.Fatalf("uint32 %d: aligned %#x, misaligned %#x, want %#x", i, u32a[i], u32m[i], want)
		}
	}
	for i := 0; i < n; i++ {
		want := binary.LittleEndian.Uint64(raw[8*i:])
		if u64a[i] != want || u64m[i] != want {
			t.Fatalf("uint64 %d: aligned %#x, misaligned %#x, want %#x", i, u64a[i], u64m[i], want)
		}
		if math.Float64bits(fa[i]) != want || math.Float64bits(fm[i]) != want {
			t.Fatalf("float64 %d: aligned %#x, misaligned %#x, want %#x", i, math.Float64bits(fa[i]), math.Float64bits(fm[i]), want)
		}
	}
	// The aligned payload is served in place, the misaligned one copied.
	aligned[0] ^= 0xff
	misaligned[0] ^= 0xff
	first := binary.LittleEndian.Uint32(raw)
	if hostLittleEndian && u32a[0] == first {
		t.Error("elems copied an aligned payload instead of viewing it")
	}
	if u32m[0] != first {
		t.Error("elems viewed a misaligned payload")
	}
}
