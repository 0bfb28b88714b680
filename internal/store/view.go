package store

import "unsafe"

// hostLittleEndian reports whether this machine stores integers the way the
// .rst payloads do.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// view reinterprets b — a column payload or a cube cell table of fixed-width
// little-endian elements inside the bytes an open read or mapped — as a []T
// over the same memory, without copying. The directory validation has
// already placed b on an 8-byte file offset and bounded it by the file; view
// checks what is left to check, and reports ok=false — the caller then
// decodes b element by element onto the heap, the same platform fallback
// mmap_other.go is for mmap itself — when the host is big-endian or b's
// address is not aligned for T (a mapping or a whole-file read never is, so
// only a foreign buffer can be). The result has cap == len: appending to it
// copies. A view keeps an eager read alive; it must not outlive a mapping.
//
// This is the repository's only use of unsafe (internal/lint's
// TestImportRules holds every other package to that).
func view[T uint32 | uint64 | float64](b []byte) (out []T, ok bool) {
	var zero T
	size := int(unsafe.Sizeof(zero))
	if !hostLittleEndian || len(b)%size != 0 {
		return nil, false
	}
	if len(b) == 0 {
		return []T{}, true
	}
	p := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(p)%unsafe.Alignof(zero) != 0 {
		return nil, false
	}
	return unsafe.Slice((*T)(p), len(b)/size), true
}
