package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/store"
)

func testRows(n, width int) []store.Row {
	rows := make([]store.Row, n)
	for i := range rows {
		dims := make([]string, width)
		for d := range dims {
			dims[d] = fmt.Sprintf("v%d-%d", i, d)
		}
		rows[i] = store.Row{Dims: dims, Measures: []float64{float64(i), float64(i) * 0.5}}
	}
	return rows
}

// writeLog commits the given batches into a fresh log and returns its path.
func writeLog(t *testing.T, batches ...[]store.Row) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "demo.wal")
	w, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("fresh log replayed %d batches", len(got))
	}
	for i, rows := range batches {
		seq, err := w.Append(rows)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("batch %d got seq %d", i, seq)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestAppendReplayRoundTrip(t *testing.T) {
	b1, b2 := testRows(3, 2), testRows(5, 2)
	path := writeLog(t, b1, b2)

	w, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(got) != 2 {
		t.Fatalf("replayed %d batches, want 2", len(got))
	}
	if got[0].Seq != 1 || got[1].Seq != 2 {
		t.Errorf("seqs = %d, %d, want 1, 2", got[0].Seq, got[1].Seq)
	}
	if !reflect.DeepEqual(got[0].Rows, b1) || !reflect.DeepEqual(got[1].Rows, b2) {
		t.Error("replayed rows differ from the committed batches")
	}
	if w.LastSeq() != 2 || w.frames != 2 {
		t.Errorf("LastSeq=%d Frames=%d, want 2, 2", w.LastSeq(), w.frames)
	}
	// The log stays appendable after a replaying open.
	if seq, err := w.Append(testRows(1, 2)); err != nil || seq != 3 {
		t.Fatalf("append after replay: seq=%d err=%v", seq, err)
	}
}

func TestSpecialValuesSurvive(t *testing.T) {
	rows := []store.Row{{
		Dims:     []string{"", `with "quotes" and, commas`, "ünïcode\n"},
		Measures: []float64{0, -0.0, 1e308},
	}}
	path := writeLog(t, rows)
	w, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(got) != 1 || !reflect.DeepEqual(got[0].Rows, rows) {
		t.Fatalf("replayed %+v, want %+v", got, rows)
	}
}

// TestTornTailTruncatedAtEveryOffset cuts a two-batch log at every byte
// offset past the first frame and asserts recovery yields exactly the frames
// that are intact at that length — never an error, never a partial frame —
// and that the file is truncated back so a subsequent append commits cleanly.
func TestTornTailTruncatedAtEveryOffset(t *testing.T) {
	b1, b2 := testRows(2, 2), testRows(4, 2)
	path := writeLog(t, b1, b2)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Find the first frame's end by replaying a one-batch log of b1.
	oneEnd := func() int {
		p := writeLog(t, b1)
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return len(b)
	}()

	for cut := headerSize; cut < len(good); cut++ {
		cutPath := filepath.Join(t.TempDir(), "torn.wal")
		if err := os.WriteFile(cutPath, good[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, got, err := Open(cutPath)
		if err != nil {
			t.Fatalf("cut at %d: open failed: %v", cut, err)
		}
		wantBatches := 0
		if cut >= oneEnd {
			wantBatches = 1
		}
		if len(got) != wantBatches {
			t.Fatalf("cut at %d: replayed %d batches, want %d", cut, len(got), wantBatches)
		}
		// The torn tail is gone: a new append lands on a clean boundary and
		// survives a second open.
		if _, err := w.Append(b2); err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		w.Close()
		w2, again, err := Open(cutPath)
		if err != nil {
			t.Fatalf("cut at %d: reopen: %v", cut, err)
		}
		if len(again) != wantBatches+1 {
			t.Fatalf("cut at %d: reopen replayed %d batches, want %d", cut, len(again), wantBatches+1)
		}
		w2.Close()
	}
}

// TestCRCCorruptionTruncatesFromDamage flips one bit in each frame in turn;
// recovery must keep the intact prefix and drop the damaged frame and
// everything after it.
func TestCRCCorruptionTruncatesFromDamage(t *testing.T) {
	b1, b2, b3 := testRows(2, 2), testRows(3, 2), testRows(1, 2)
	path := writeLog(t, b1, b2, b3)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frameStart := func(n int) int { // byte offset where frame n begins
		off := headerSize
		for i := 0; i < n; i++ {
			p := writeLog(t, [][]store.Row{b1, b2, b3}[i])
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			off += len(b) - headerSize
		}
		return off
	}
	for frame := 0; frame < 3; frame++ {
		start := frameStart(frame)
		b := append([]byte(nil), good...)
		b[start+14] ^= 0x40 // flip a payload bit
		badPath := filepath.Join(t.TempDir(), "bad.wal")
		if err := os.WriteFile(badPath, b, 0o644); err != nil {
			t.Fatal(err)
		}
		w, got, err := Open(badPath)
		if err != nil {
			t.Fatalf("frame %d: open: %v", frame, err)
		}
		if len(got) != frame {
			t.Errorf("frame %d damaged: replayed %d batches, want %d", frame, len(got), frame)
		}
		w.Close()
	}
}

func TestResetContinuesSequence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "demo.wal")
	w, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 3; i++ {
		if _, err := w.Append(testRows(1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if w.frames != 0 || w.Size() != headerSize {
		t.Errorf("after reset: frames=%d size=%d", w.frames, w.Size())
	}
	// Sequence numbering never repeats: the next append continues past the
	// truncated frames, and the reset survives a reopen.
	seq, err := w.Append(testRows(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 4 {
		t.Errorf("post-reset seq = %d, want 4", seq)
	}
	w.Close()
	w2, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(got) != 1 || got[0].Seq != 4 {
		t.Fatalf("reopen after reset: %d batches, first seq %v", len(got), got)
	}
	if seq, err := w2.Append(testRows(1, 1)); err != nil || seq != 5 {
		t.Fatalf("append after reopen: seq=%d err=%v", seq, err)
	}
}

// TestAdvanceToSkipsCheckpointedSequences covers the checkpoint-outlives-log
// case: an empty log advanced past a checkpoint's sequence hands out fresh
// numbers above it, and the bump survives a reopen. A log that still holds
// frames is left alone.
func TestAdvanceToSkipsCheckpointedSequences(t *testing.T) {
	path := filepath.Join(t.TempDir(), "demo.wal")
	w, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(7); err != nil {
		t.Fatal(err)
	}
	if seq, err := w.Append(testRows(1, 1)); err != nil || seq != 8 {
		t.Fatalf("append after AdvanceTo(7): seq=%d err=%v", seq, err)
	}
	// Frames exist now, so a further advance must not disturb the numbering.
	if err := w.AdvanceTo(100); err != nil {
		t.Fatal(err)
	}
	if seq, err := w.Append(testRows(1, 1)); err != nil || seq != 9 {
		t.Fatalf("append after no-op advance: seq=%d err=%v", seq, err)
	}
	w.Close()
	w2, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(got) != 2 || got[0].Seq != 8 || got[1].Seq != 9 {
		t.Fatalf("reopen replayed %+v, want seqs 8 and 9", got)
	}
}

func TestOpenRejectsForeignFiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not.wal")
	if err := os.WriteFile(path, []byte("this is not a log at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path); err == nil {
		t.Fatal("foreign file opened as a WAL")
	}
	// A future log version is refused rather than misread.
	good := writeLog(t, testRows(1, 1))
	b, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	b[4] = version + 1
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path); err == nil {
		t.Fatal("future log version opened")
	}
}

func TestEmptyBatchRejected(t *testing.T) {
	w, _, err := Open(filepath.Join(t.TempDir(), "demo.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append(nil); err == nil {
		t.Fatal("empty batch committed")
	}
}

func TestOpenCreatesMissingDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state", "wal", "demo.wal")
	w, batches, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 0 {
		t.Fatalf("fresh log replayed %d batches", len(batches))
	}
	if _, err := w.Append(testRows(2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, again, err := Open(path); err != nil || len(again) != 1 {
		t.Fatalf("reopen: %v, %d batches", err, len(again))
	}
}
