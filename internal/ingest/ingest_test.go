package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/shard"
	"repro/internal/store"
)

// The lifecycle table: one script — open, clean append, FD-poisoned append,
// retention pass, checkpoint, append, kill without drain, reopen — run at
// every shard count × cube setting. The invariant it pins is the one the
// package exists for: the answer is a function of the multiset of rows and
// the drill state, never of how the rows are held (1, 2 or 4 shards, cube or
// scan) nor of whether they arrived live or through checkpoint + replay.

var testHierarchies = []data.Hierarchy{
	{Name: "geo", Attrs: []string{"district", "village"}},
	{Name: "time", Attrs: []string{"year"}},
}

// baseSet builds the 16-row base dataset (4 districts × 2 villages × 2 years,
// integer severities) as the one-shard set.
func baseSet(t testing.TB) *shard.Set {
	t.Helper()
	ds := data.New("drought", []string{"district", "village", "year"}, []string{"severity"}, testHierarchies)
	sev := 1.0
	for _, d := range []string{"Ofla", "Raya", "Alaje", "Enda"} {
		for _, v := range []string{"a", "b"} {
			for _, y := range []string{"1986", "1987"} {
				ds.AppendRowVals([]string{d, d + "-" + v, y}, []float64{sev})
				sev = float64(int(sev*7)%10 + 1)
			}
		}
	}
	return shard.Single(store.FromDataset(ds))
}

func row(district, village, year string, severity float64) store.Row {
	return store.Row{Dims: []string{district, village, year}, Measures: []float64{severity}}
}

var (
	cleanBatch = []store.Row{row("Raya", "Raya-c", "1986", 4), row("Enda", "Enda-c", "1987", 5)}
	// poisonBatch re-parents an existing village: Ofla-a already belongs to
	// Ofla, so the geo hierarchy's functional dependency breaks — inside one
	// snapshot at N = 1, across shards otherwise.
	poisonBatch = []store.Row{row("Raya", "Raya-d", "1987", 3), row("Alaje", "Ofla-a", "1987", 9)}
	// horizonBatch carries a newer event: with the 500-day window it moves the
	// horizon past every 1986 row.
	horizonBatch = []store.Row{row("Ofla", "Ofla-a", "1988", 6)}
	tailBatch    = []store.Row{row("Alaje", "Alaje-c", "1988", 2), row("Raya", "Raya-c", "1988", 7)}
)

func testOptions(shards int, cube bool) Options {
	return Options{
		Shards: shards, Cube: cube,
		Retention: 500 * 24 * time.Hour, RetentionDim: "year",
		Engine: core.Options{EMIterations: 4, Workers: 1},
	}
}

// answers evaluates a fixed complaint at the fresh and the drilled state and
// returns both recommendations as JSON.
func answers(t *testing.T, v *Version) []byte {
	t.Helper()
	sess, err := v.Eng.NewSession([]string{"district"})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, step := range []struct{ drill, tuple string }{{"", "district=Raya"}, {"time", "district=Raya year=1987"}} {
		if step.drill != "" {
			if err := sess.Drill(step.drill); err != nil {
				t.Fatal(err)
			}
		}
		c, err := core.ParseComplaint("agg=mean measure=severity dir=low " + step.tuple)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := sess.Recommend(c)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// lifecycle is what one run of the script observed.
type lifecycle struct {
	live     [][]byte // answers after open and after each successful apply
	reopened []byte   // answers after kill + Recover
	skipped  uint64   // rows the recovery fold skipped
	rows     int
}

// logApply commits a batch to the log and folds it — the flusher's two steps.
func logApply(t *testing.T, d *Dataset, rows []store.Row) (uint64, error) {
	t.Helper()
	seq, err := d.Log(rows)
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Apply(rows)
	return seq, err
}

func runLifecycle(t *testing.T, shards int, cube bool) lifecycle {
	t.Helper()
	dir := t.TempDir()
	o := testOptions(shards, cube)
	d, err := Recover(dir, "drought", baseSet(t), o)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Version().Set.N(); got != shards {
		t.Fatalf("version holds %d shards, want %d", got, shards)
	}
	var lc lifecycle
	lc.live = append(lc.live, answers(t, d.Version()))

	if _, err := logApply(t, d, cleanBatch); err != nil {
		t.Fatal(err)
	}
	lc.live = append(lc.live, answers(t, d.Version()))

	before := d.Version()
	if _, err := logApply(t, d, poisonBatch); err == nil {
		t.Fatal("FD-violating batch applied")
	}
	if d.Version() != before {
		t.Fatal("a rejected batch swapped the served version")
	}

	seq, err := logApply(t, d, horizonBatch)
	if err != nil {
		t.Fatal(err)
	}
	v := d.Version()
	// 16 base + 2 clean + 1 horizon − the 9 rows dated 1986.
	if v.Set.TotalRows() != 10 || v.Dropped != 9 || v.Horizon.IsZero() {
		t.Fatalf("after the retention pass: %d rows, %d dropped, horizon %v; want 10 rows, 9 dropped", v.Set.TotalRows(), v.Dropped, v.Horizon)
	}
	lc.live = append(lc.live, answers(t, v))

	// Checkpoint at the quiescent point: the file name carries seq, the log
	// truncates to its 13-byte header.
	if err := d.Checkpoint(seq); err != nil {
		t.Fatal(err)
	}
	if cks, _ := filepath.Glob(filepath.Join(dir, "drought.ckpt.*.rst")); len(cks) != 1 || !strings.HasSuffix(cks[0], fmt.Sprintf("%020d.rst", seq)) {
		t.Fatalf("checkpoints on disk = %v, want exactly the seq-%d one", cks, seq)
	}
	if last, size := d.LogStatus(); last != seq || size != 13 {
		t.Fatalf("log after checkpoint: last seq %d, %d bytes; want %d, 13", last, size, seq)
	}

	// Logged but never applied, then killed without a drain: the rows exist
	// only in the log — a poisoned batch among them.
	for _, b := range [][]store.Row{poisonBatch, tailBatch} {
		if _, err := d.Log(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Log(tailBatch); err == nil {
		t.Fatal("Log on a closed dataset succeeded")
	}

	// Reopen: the checkpoint supersedes the base (and its topology wins over
	// the requested one), the poisoned batch is skipped, the tail replays.
	re, err := Recover(dir, "drought", baseSet(t), o)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	lc.reopened, lc.skipped, lc.rows = answers(t, re.Version()), re.Skipped, re.Version().Set.TotalRows()
	if got := re.Version().Set.N(); got != shards {
		t.Fatalf("reopened version holds %d shards, want %d", got, shards)
	}
	if (re.Version().Set.Schema().Cube() != nil) != cube {
		t.Fatalf("reopened cube presence = %v, want %v", !cube, cube)
	}
	// Fresh appends never reuse a sequence number the checkpoint or the
	// replayed frames cover.
	if next, err := re.Log(cleanBatch); err != nil || next != seq+3 {
		t.Fatalf("post-recovery sequence = %d (%v), want %d", next, err, seq+3)
	}
	return lc
}

func TestLifecycleAcrossShardsAndCubes(t *testing.T) {
	// The crash-free reference for the reopened state: the same clean batches
	// through an unlogged one-shard dataset, synchronously.
	ref, err := Open(baseSet(t), testOptions(1, false))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]store.Row{cleanBatch, horizonBatch, tailBatch} {
		if _, err := ref.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ref.Append(poisonBatch); err == nil {
		t.Fatal("reference accepted the FD-violating batch")
	}
	wantReopened := answers(t, ref.Version())

	var first *lifecycle
	for _, shards := range []int{1, 2, 4} {
		for _, cube := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/cube=%v", shards, cube), func(t *testing.T) {
				lc := runLifecycle(t, shards, cube)
				if lc.skipped != uint64(len(poisonBatch)) {
					t.Errorf("recovery skipped %d rows, want the poisoned batch's %d", lc.skipped, len(poisonBatch))
				}
				if lc.rows != 12 {
					t.Errorf("reopened rows = %d, want 12", lc.rows)
				}
				if !bytes.Equal(lc.reopened, wantReopened) {
					t.Errorf("reopened answers differ from crash-free ingestion:\n%s\nvs\n%s", lc.reopened, wantReopened)
				}
				if first == nil {
					first = &lc
					return
				}
				for i := range lc.live {
					if !bytes.Equal(lc.live[i], first.live[i]) {
						t.Errorf("live answers at step %d differ from shards=1/cube=false:\n%s\nvs\n%s", i, lc.live[i], first.live[i])
					}
				}
			})
		}
	}
}

// TestSetWritePinsFileLayouts pins the bytes the lifecycle writes: the
// one-shard set writes what Snapshot.WriteFile writes, cube section
// included, and two shards write what store.WriteSharded writes.
func TestSetWritePinsFileLayouts(t *testing.T) {
	dir := t.TempDir()
	snap := baseSet(t).Snaps[0]
	if err := snap.BuildCube(); err != nil {
		t.Fatal(err)
	}
	read := func(path string) []byte {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	setPath, snapPath := filepath.Join(dir, "set.rst"), filepath.Join(dir, "snap.rst")
	if err := shard.Single(snap).WriteFile(setPath); err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteFile(snapPath); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(read(setPath), read(snapPath)) {
		t.Error("one-shard Set.WriteFile differs from Snapshot.WriteFile")
	}

	two, err := shard.Partition(baseSet(t).Snaps[0], 2, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := two.WriteFile(setPath); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := store.WriteSharded(&want, two.Key, two.Snaps); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(read(setPath), want.Bytes()) {
		t.Error("two-shard Set.WriteFile differs from store.WriteSharded")
	}
}

// TestSaveTruncatesLogOnlyAfterDurableWrite covers Save, the caller-named
// checkpoint: the log truncates after a successful write and stays intact
// when the write fails.
func TestSaveTruncatesLogOnlyAfterDurableWrite(t *testing.T) {
	dir := t.TempDir()
	d, err := Recover(dir, "drought", baseSet(t), testOptions(2, false))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Append(cleanBatch); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Save(filepath.Join(dir, "missing", "out.rst")); err == nil {
		t.Fatal("Save into a missing directory succeeded")
	}
	if _, size := d.LogStatus(); size == 13 {
		t.Fatal("a failed Save truncated the log")
	}
	v, err := d.Save(filepath.Join(dir, "out.rst"))
	if err != nil {
		t.Fatal(err)
	}
	if last, size := d.LogStatus(); last != 1 || size != 13 {
		t.Fatalf("log after Save: last seq %d, %d bytes; want 1, 13", last, size)
	}
	back, err := shard.Open(filepath.Join(dir, "out.rst"), false)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 2 || back.TotalRows() != v.Set.TotalRows() {
		t.Fatalf("saved file holds %d shards / %d rows, want 2 / %d", back.N(), back.TotalRows(), v.Set.TotalRows())
	}
}

// TestRefusals keeps the lifecycle's refusals: a sharded registration over an
// unsharded checkpoint, and appends, partitioning and retention on mapped
// data.
func TestRefusals(t *testing.T) {
	t.Run("sharded base over unsharded checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		d, err := Recover(dir, "drought", baseSet(t), Options{Engine: core.Options{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := logApply(t, d, cleanBatch)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Checkpoint(seq); err != nil {
			t.Fatal(err)
		}
		d.Close()
		sharded, err := shard.Partition(baseSet(t).Snaps[0], 2, "")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Recover(dir, "drought", sharded, Options{}); err == nil || !strings.Contains(err.Error(), "unsharded") {
			t.Fatalf("err = %v, want the unsharded-checkpoint refusal", err)
		}
	})

	path := filepath.Join(t.TempDir(), "plain.rst")
	if err := baseSet(t).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	openMapped := func(t *testing.T) *shard.Set {
		set, err := shard.Open(path, true)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { set.Close() })
		return set
	}
	t.Run("append on mapped data", func(t *testing.T) {
		d, err := Open(openMapped(t), Options{Engine: core.Options{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Append(cleanBatch); err == nil || !strings.Contains(err.Error(), "re-open it eagerly") {
			t.Fatalf("err = %v, want the mapped-append refusal", err)
		}
	})
	t.Run("partitioning mapped data", func(t *testing.T) {
		if _, err := Open(openMapped(t), Options{Shards: 2}); err == nil || !strings.Contains(err.Error(), "re-open it eagerly") {
			t.Fatalf("err = %v, want the mapped-partition refusal", err)
		}
	})
	t.Run("retention on mapped data", func(t *testing.T) {
		if _, err := Open(openMapped(t), Options{Retention: time.Hour, RetentionDim: "year"}); err == nil || !strings.Contains(err.Error(), "re-open it eagerly") {
			t.Fatalf("err = %v, want the mapped-retention refusal", err)
		}
	})
	t.Run("retention without a dimension", func(t *testing.T) {
		if _, err := Open(baseSet(t), Options{Retention: time.Hour}); err == nil || !strings.Contains(err.Error(), "retention dimension") {
			t.Fatalf("err = %v, want the missing-dimension refusal", err)
		}
	})
}

func TestFileName(t *testing.T) {
	for in, want := range map[string]string{
		"drought":          "drought",
		"data/survey.csv":  "data_survey.csv",
		"..":               "..dataset",
		"":                 "dataset",
		"a b\tc":           "a_b_c",
		"Ünï":              "_n_",
		"ok-1_2.v3":        "ok-1_2.v3",
		"../../etc/passwd": ".._.._etc_passwd",
	} {
		if got := FileName(in); got != want {
			t.Errorf("FileName(%q) = %q, want %q", in, got, want)
		}
	}
}
