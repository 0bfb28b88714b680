//go:build !unix

package store

import (
	"io"
	"os"
)

// mapFile falls back to reading the file into memory on platforms without
// mmap support: OpenMappedFile still works everywhere, it just loses the
// larger-than-RAM property there.
func mapFile(f *os.File, size int64) ([]byte, error) {
	b := make([]byte, size)
	if _, err := io.ReadFull(f, b); err != nil {
		return nil, err
	}
	return b, nil
}

// unmapFile releases a mapping created by mapFile.
func unmapFile(b []byte) error { return nil }
