// The package documentation, including the on-disk frame layout, lives in
// doc.go.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/store"
)

const (
	magic      = "RWAL"
	version    = 1
	headerSize = 4 + 1 + 8
	// frameOverhead is the fixed byte cost around a payload: length, seq, crc.
	frameOverhead = 4 + 8 + 4
	// maxFrameLen bounds a single frame's seq+payload bytes; anything larger
	// in a length field is treated as corruption, not an allocation request.
	maxFrameLen = 1 << 30
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Batch is one committed append: the sequence number the caller was
// acknowledged with and the rows it covers.
type Batch struct {
	Seq  uint64
	Rows []store.Row
}

// WAL is one dataset's write-ahead log. It is not safe for concurrent use;
// callers serialize access per dataset (internal/server holds its ingester
// mutex around every call).
type WAL struct {
	path   string
	f      *os.File
	seq    uint64 // last assigned sequence number
	size   int64
	frames int // committed frames currently in the file
}

// Open opens (or creates) the log at path and scans its committed batches.
// A torn or corrupt tail is truncated away — see the package documentation
// for the exact recovery semantics. The returned batches are every intact
// frame in commit order; the caller decides which still need replaying.
func Open(path string) (*WAL, []Batch, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("wal: creating %s: %w", dir, err)
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	w := &WAL{path: path, f: f}
	batches, err := w.scan()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return w, batches, nil
}

// scan reads the header and every intact frame, truncating the file back to
// the last intact frame when it hits a torn or corrupt one.
func (w *WAL) scan() ([]Batch, error) {
	info, err := w.f.Stat()
	if err != nil {
		return nil, fmt.Errorf("wal: stat %s: %w", w.path, err)
	}
	if info.Size() == 0 {
		// Fresh log: write the header with sequence numbering from 1.
		if err := w.writeHeader(w.f, 1); err != nil {
			return nil, err
		}
		w.size = headerSize
		return nil, nil
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(w.f, hdr[:]); err != nil {
		return nil, fmt.Errorf("wal: %s: reading header: %w", w.path, err)
	}
	if string(hdr[:4]) != magic {
		return nil, fmt.Errorf("wal: %s is not a write-ahead log (bad magic)", w.path)
	}
	if hdr[4] != version {
		return nil, fmt.Errorf("wal: %s: unsupported log version %d (want %d)", w.path, hdr[4], version)
	}
	startSeq := binary.LittleEndian.Uint64(hdr[5:])
	if startSeq > 0 {
		w.seq = startSeq - 1
	}

	var batches []Batch
	off := int64(headerSize)
	for {
		b, end, err := readFrame(w.f, off, w.seq)
		if err != nil {
			if errors.Is(err, errFrameBroken) {
				// Crash tail (or damage): drop this frame and everything
				// after it.
				if terr := w.f.Truncate(off); terr != nil {
					return nil, fmt.Errorf("wal: %s: truncating torn tail at %d: %w", w.path, off, terr)
				}
				break
			}
			return nil, err
		}
		if b == nil { // clean EOF
			break
		}
		batches = append(batches, *b)
		w.seq = b.Seq
		w.frames++
		off = end
	}
	w.size = off
	if _, err := w.f.Seek(off, io.SeekStart); err != nil {
		return nil, fmt.Errorf("wal: %s: seeking to tail: %w", w.path, err)
	}
	return batches, nil
}

// errFrameBroken marks a frame that recovery must truncate at (torn tail,
// CRC mismatch, inconsistent payload, sequence regression) — as opposed to
// an I/O error, which fails the open.
var errFrameBroken = errors.New("wal: broken frame")

// readFrame decodes one frame starting at off. It returns (nil, off, nil) on
// a clean end of file, errFrameBroken for anything recovery should truncate,
// and other errors for real I/O failures.
func readFrame(f *os.File, off int64, prevSeq uint64) (*Batch, int64, error) {
	var lenBuf [4]byte
	n, err := f.ReadAt(lenBuf[:], off)
	if n == 0 && (err == io.EOF || err == nil) {
		return nil, off, nil
	}
	if n < len(lenBuf) {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, off, errFrameBroken
		}
		return nil, off, fmt.Errorf("wal: reading frame length at %d: %w", off, err)
	}
	frameLen := binary.LittleEndian.Uint32(lenBuf[:])
	if frameLen < 8 || frameLen > maxFrameLen {
		return nil, off, errFrameBroken
	}
	rest := make([]byte, int(frameLen)+4) // seq+payload plus trailing crc
	if _, err := io.ReadFull(io.NewSectionReader(f, off+4, int64(len(rest))), rest); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, off, errFrameBroken
		}
		return nil, off, fmt.Errorf("wal: reading frame at %d: %w", off, err)
	}
	body, sum := rest[:frameLen], rest[frameLen:]
	crc := crc32.Checksum(lenBuf[:], castagnoli)
	crc = crc32.Update(crc, castagnoli, body)
	if crc != binary.LittleEndian.Uint32(sum) {
		return nil, off, errFrameBroken
	}
	seq := binary.LittleEndian.Uint64(body[:8])
	if seq <= prevSeq {
		return nil, off, errFrameBroken
	}
	rows, ok := decodeBatch(body[8:])
	if !ok {
		return nil, off, errFrameBroken
	}
	return &Batch{Seq: seq, Rows: rows}, off + 4 + int64(frameLen) + 4, nil
}

// Append commits one row batch: it frames and writes the rows, fsyncs, and
// returns the batch's sequence number. The rows are durable when Append
// returns.
func (w *WAL) Append(rows []store.Row) (uint64, error) {
	if len(rows) == 0 {
		return 0, fmt.Errorf("wal: empty batch")
	}
	payload := encodeBatch(rows)
	seq := w.seq + 1
	frame := make([]byte, 4+8+len(payload)+4)
	binary.LittleEndian.PutUint32(frame[:4], uint32(8+len(payload)))
	binary.LittleEndian.PutUint64(frame[4:12], seq)
	copy(frame[12:], payload)
	crc := crc32.Checksum(frame[:12+len(payload)], castagnoli)
	binary.LittleEndian.PutUint32(frame[12+len(payload):], crc)
	if _, err := w.f.Write(frame); err != nil {
		return 0, fmt.Errorf("wal: %s: writing frame: %w", w.path, err)
	}
	if err := w.f.Sync(); err != nil {
		return 0, fmt.Errorf("wal: %s: syncing frame: %w", w.path, err)
	}
	w.seq = seq
	w.size += int64(len(frame))
	w.frames++
	return seq, nil
}

// LastSeq returns the last assigned sequence number (0 before any append).
func (w *WAL) LastSeq() uint64 { return w.seq }

// Size returns the log's current byte length.
func (w *WAL) Size() int64 { return w.size }

// Reset atomically replaces the log with an empty one that continues the
// sequence numbering. Call it only once every logged batch is durably
// captured elsewhere (a checkpoint snapshot): a crash before the rename
// keeps the old frames, a crash after it keeps the empty log, and either
// state recovers consistently.
func (w *WAL) Reset() error {
	tmp := w.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: resetting %s: %w", w.path, err)
	}
	if err := w.writeHeader(f, w.seq+1); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: syncing reset log: %w", err)
	}
	if err := os.Rename(tmp, w.path); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: swapping reset log in: %w", err)
	}
	if err := syncDir(filepath.Dir(w.path)); err != nil {
		f.Close()
		return err
	}
	w.f.Close()
	w.f = f
	w.size = headerSize
	w.frames = 0
	return nil
}

// AdvanceTo raises the log's sequence numbering so the next append commits
// at seq+1. It applies only to an empty log — a recovery aid for when a
// checkpoint outlives a deleted or recreated log file, so fresh appends can
// never reuse sequence numbers the checkpoint already covers. Advancing a log
// that holds frames, or backwards, is a no-op.
func (w *WAL) AdvanceTo(seq uint64) error {
	if w.frames > 0 || seq <= w.seq {
		return nil
	}
	if err := w.writeHeader(w.f, seq+1); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: %s: syncing advanced header: %w", w.path, err)
	}
	w.seq = seq
	return nil
}

// Sync flushes any buffered state to disk. Appends already sync on commit,
// so this matters only as a belt-and-braces call on shutdown.
func (w *WAL) Sync() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: %s: sync: %w", w.path, err)
	}
	return nil
}

// Close releases the log's file handle. The log stays on disk for the next
// Open.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	if err != nil {
		return fmt.Errorf("wal: %s: close: %w", w.path, err)
	}
	return nil
}

// writeHeader writes the file header declaring startSeq at offset 0 and
// leaves the cursor positioned right after it, ready for the first frame.
func (w *WAL) writeHeader(f *os.File, startSeq uint64) error {
	var hdr [headerSize]byte
	copy(hdr[:4], magic)
	hdr[4] = version
	binary.LittleEndian.PutUint64(hdr[5:], startSeq)
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: %s: seeking to header: %w", w.path, err)
	}
	if _, err := f.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: %s: writing header: %w", w.path, err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: opening dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: syncing dir %s: %w", dir, err)
	}
	return nil
}

// encodeBatch serializes rows into a frame payload (layout in doc.go).
func encodeBatch(rows []store.Row) []byte {
	n := 3 * binary.MaxVarintLen64
	for _, r := range rows {
		for _, d := range r.Dims {
			n += binary.MaxVarintLen64 + len(d)
		}
		n += 8 * len(r.Measures)
	}
	buf := make([]byte, 0, n)
	var u [binary.MaxVarintLen64]byte
	uv := func(v uint64) { buf = append(buf, u[:binary.PutUvarint(u[:], v)]...) }
	uv(uint64(len(rows)))
	uv(uint64(len(rows[0].Dims)))
	uv(uint64(len(rows[0].Measures)))
	for _, r := range rows {
		for _, d := range r.Dims {
			uv(uint64(len(d)))
			buf = append(buf, d...)
		}
		for _, m := range r.Measures {
			var f [8]byte
			binary.LittleEndian.PutUint64(f[:], math.Float64bits(m))
			buf = append(buf, f[:]...)
		}
	}
	return buf
}

// decodeBatch parses a frame payload back into rows; ok is false on any
// structural inconsistency (recovery treats the frame as corrupt).
func decodeBatch(b []byte) (rows []store.Row, ok bool) {
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, false
		}
		b = b[n:]
		return v, true
	}
	nRows, ok1 := uv()
	nDims, ok2 := uv()
	nMeasures, ok3 := uv()
	if !ok1 || !ok2 || !ok3 || nRows == 0 || nRows > maxFrameLen || nDims > 1<<20 || nMeasures > 1<<20 {
		return nil, false
	}
	rows = make([]store.Row, 0, nRows)
	for i := uint64(0); i < nRows; i++ {
		r := store.Row{Dims: make([]string, nDims), Measures: make([]float64, nMeasures)}
		for d := range r.Dims {
			l, ok := uv()
			if !ok || uint64(len(b)) < l {
				return nil, false
			}
			r.Dims[d] = string(b[:l])
			b = b[l:]
		}
		for m := range r.Measures {
			if len(b) < 8 {
				return nil, false
			}
			r.Measures[m] = math.Float64frombits(binary.LittleEndian.Uint64(b))
			b = b[8:]
		}
		rows = append(rows, r)
	}
	return rows, len(b) == 0
}
