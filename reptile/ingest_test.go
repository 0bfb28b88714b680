package reptile_test

// SDK-level coverage of the ingestion options: WithWAL durability across a
// crash (Close without Save), Save acting as a checkpoint that truncates the
// log, and WithRetention bounding history on an event-time dimension.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/reptile"
)

func openDrought(t *testing.T, path string, extra ...reptile.Option) *reptile.Engine {
	t.Helper()
	opts := append([]reptile.Option{
		reptile.WithMeasures("severity"),
		reptile.WithHierarchies(testHierarchies),
		reptile.WithName("drought"),
		reptile.WithEMIterations(4),
		reptile.WithWorkers(1),
	}, extra...)
	eng, err := reptile.Open(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func complainJSON(t *testing.T, eng *reptile.Engine, spec string) []byte {
	t.Helper()
	sess, err := eng.NewSession([]string{"district", "year"})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sess.Complain(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

var appendedRows = []reptile.Row{
	{Dims: []string{"Raya", "Bala", "1986"}, Measures: []float64{4}},
	{Dims: []string{"Raya", "Bala", "1987"}, Measures: []float64{5}},
}

// TestWALReplayAfterCrash appends against a logged engine, "crashes" (Close
// without Save), reopens the same source with the same log directory, and
// requires the replayed engine to answer byte-identically.
func TestWALReplayAfterCrash(t *testing.T) {
	dir := t.TempDir()
	csvPath := writeTestCSV(t)
	complaint := "agg=mean measure=severity dir=low district=Raya year=1986"

	eng := openDrought(t, csvPath, reptile.WithWAL(dir))
	if err := eng.Append(appendedRows); err != nil {
		t.Fatal(err)
	}
	want := complainJSON(t, eng, complaint)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// A closed engine must not take silent, unlogged appends.
	if err := eng.Append(appendedRows); err == nil {
		t.Fatal("append after Close succeeded")
	}

	reopened := openDrought(t, csvPath, reptile.WithWAL(dir))
	defer reopened.Close()
	if n := reopened.Dataset().NumRows(); n != 10 {
		t.Fatalf("replayed rows = %d, want 10", n)
	}
	if got := complainJSON(t, reopened, complaint); !bytes.Equal(got, want) {
		t.Errorf("replayed recommendation differs:\nreplayed: %s\nlive: %s", got, want)
	}
}

// TestSaveCheckpointsAndTruncatesWAL pins Save's checkpoint contract: the log
// truncates once the snapshot captures its rows, and later appends land in
// the log again for the next replay.
func TestSaveCheckpointsAndTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	eng := openDrought(t, writeTestCSV(t), reptile.WithWAL(dir))
	if err := eng.Append(appendedRows); err != nil {
		t.Fatal(err)
	}
	rstPath := filepath.Join(dir, "drought.rst")
	info, err := eng.Save(rstPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 10 {
		t.Fatalf("saved rows = %d, want 10", info.Rows)
	}
	// 13 bytes is a bare log header: the appended batch was truncated away.
	if fi, err := os.Stat(filepath.Join(dir, "drought.wal")); err != nil || fi.Size() != 13 {
		t.Fatalf("log after Save: size=%v err=%v, want the 13-byte header", fi.Size(), err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// The snapshot + empty log round-trips; a post-checkpoint append replays
	// on the open after that.
	eng2, err := reptile.Open(rstPath, reptile.WithEMIterations(4), reptile.WithWorkers(1), reptile.WithWAL(dir))
	if err != nil {
		t.Fatal(err)
	}
	if n := eng2.Dataset().NumRows(); n != 10 {
		t.Fatalf("reopened snapshot rows = %d, want 10", n)
	}
	if err := eng2.Append([]reptile.Row{{Dims: []string{"Ofla", "Dela", "1986"}, Measures: []float64{6}}}); err != nil {
		t.Fatal(err)
	}
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}
	eng3, err := reptile.Open(rstPath, reptile.WithEMIterations(4), reptile.WithWorkers(1), reptile.WithWAL(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer eng3.Close()
	if n := eng3.Dataset().NumRows(); n != 11 {
		t.Errorf("rows after post-checkpoint replay = %d, want 11", n)
	}
}

// TestSaveKeepsLogUntilSnapshotIsDurable is the regression test for Save
// truncating the log behind a snapshot that never reached stable storage.
// The temp file Save writes through is pre-planted as a symlink to /dev/null:
// every write "succeeds" and is discarded, which only the fsync reveals
// (EINVAL on a character device) — the observable stand-in for a power cut
// between rename and writeback. Save must fail and leave every acknowledged
// row in the log.
func TestSaveKeepsLogUntilSnapshotIsDurable(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("relies on fsync(/dev/null) failing, which is Linux behaviour")
	}
	dir := t.TempDir()
	csvPath := writeTestCSV(t)
	eng := openDrought(t, csvPath, reptile.WithWAL(dir))
	if err := eng.Append(appendedRows); err != nil {
		t.Fatal(err)
	}
	rstPath := filepath.Join(dir, "drought.rst")
	if err := os.Symlink("/dev/null", rstPath+".tmp"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Save(rstPath); err == nil {
		t.Error("Save reported success for a snapshot that was never synced")
	}
	if fi, err := os.Stat(filepath.Join(dir, "drought.wal")); err != nil || fi.Size() <= 13 {
		t.Fatalf("log after the failed Save: size=%v err=%v, want the appended batch still logged", fi.Size(), err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := openDrought(t, csvPath, reptile.WithWAL(dir))
	defer reopened.Close()
	if n := reopened.Dataset().NumRows(); n != 10 {
		t.Errorf("rows after reopening = %d, want 10 (the acknowledged rows survive)", n)
	}
}

// TestWithRetentionDropsOldRows checks the event-time window at open and on
// append: the horizon follows the newest event, never the clock.
func TestWithRetentionDropsOldRows(t *testing.T) {
	// 30 days on a year-granularity dimension: only the newest year survives.
	eng := openDrought(t, writeTestCSV(t), reptile.WithRetention(720*time.Hour, "year"))
	defer eng.Close()
	if n := eng.Dataset().NumRows(); n != 4 {
		t.Fatalf("rows after retention at open = %d, want 4 (1986 dropped)", n)
	}
	// A 1988 row advances the horizon past 1987.
	if err := eng.Append([]reptile.Row{{Dims: []string{"Raya", "Bora", "1988"}, Measures: []float64{3}}}); err != nil {
		t.Fatal(err)
	}
	if n := eng.Dataset().NumRows(); n != 1 {
		t.Errorf("rows after 1988 append = %d, want 1", n)
	}
}

func TestIngestOptionErrors(t *testing.T) {
	csvPath := writeTestCSV(t)
	cases := []struct {
		name string
		opts []reptile.Option
		want string
	}{
		{"negative retention",
			[]reptile.Option{reptile.WithRetention(-time.Hour, "year")}, "positive window"},
		{"retention without dim",
			[]reptile.Option{reptile.WithRetention(time.Hour, "")}, "time dimension"},
		{"retention on unknown dim",
			[]reptile.Option{reptile.WithRetention(time.Hour, "epoch")}, "epoch"},
		{"wal with mmap",
			[]reptile.Option{reptile.WithWAL(""), reptile.WithMappedIO()}, "incompatible"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]reptile.Option{
				reptile.WithMeasures("severity"),
				reptile.WithHierarchies(testHierarchies),
			}, tc.opts...)
			_, err := reptile.Open(csvPath, opts...)
			if err == nil {
				t.Fatal("Open succeeded, want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
