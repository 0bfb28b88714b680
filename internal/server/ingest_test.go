package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/ingest"
	"repro/internal/store"
	"repro/reptile/api"
)

// droughtRequest is the standard test registration, reused by WAL tests that
// need to re-register the same dataset against a fresh server.
func droughtRequest() api.RegisterDatasetRequest {
	return api.RegisterDatasetRequest{
		Name:         "drought",
		CSV:          testCSV,
		Measures:     []string{"severity"},
		Hierarchies:  testHierarchies,
		EMIterations: 4,
	}
}

func register(t *testing.T, base string, req api.RegisterDatasetRequest) {
	t.Helper()
	code, b := post(t, base+"/v1/datasets", req)
	if code != http.StatusCreated {
		t.Fatalf("register dataset: %d %s", code, b)
	}
}

func createSession(t *testing.T, base string) string {
	t.Helper()
	code, b := post(t, base+"/v1/sessions", api.CreateSessionRequest{
		Dataset: "drought",
		GroupBy: []string{"district", "year"},
	})
	if code != http.StatusCreated {
		t.Fatalf("create session: %d %s", code, b)
	}
	var sr api.Session
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatal(err)
	}
	return sr.ID
}

func entry(t *testing.T, s *Server, name string) *engineEntry {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	ent := s.engines[name]
	if ent == nil {
		t.Fatalf("dataset %q not registered", name)
	}
	return ent
}

// waitWAL polls the ingester until cond holds; flushing is asynchronous, so
// tests that assert post-flush state wait here first.
func waitWAL(t *testing.T, ing *ingester, what string, cond func(*api.WALStatus) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond(ing.status()) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; status %+v", what, ing.status())
}

func quiescent(ws *api.WALStatus) bool {
	return ws.PendingRows == 0 && ws.LastSeq == ws.FlushedSeq
}

func datasetStats(t *testing.T, base, name string) api.DatasetStats {
	t.Helper()
	code, b := get(t, base+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, b)
	}
	var sr api.StatsResponse
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatal(err)
	}
	ds, ok := sr.Datasets[name]
	if !ok {
		t.Fatalf("stats has no dataset %q: %s", name, b)
	}
	return ds
}

func recommendBytes(t *testing.T, base, id, complaint string) []byte {
	t.Helper()
	code, b := post(t, base+"/v1/sessions/"+id+"/recommend", api.RecommendRequest{Complaint: complaint})
	if code != http.StatusOK {
		t.Fatalf("recommend: %d %s", code, b)
	}
	var rr api.RecommendResponse
	if err := json.Unmarshal(b, &rr); err != nil {
		t.Fatal(err)
	}
	return rr.Recommendation
}

// TestWALAppendAcksThenFlushes exercises the happy path: a WAL-backed append
// is acknowledged with its log sequence before the serving state changes, and
// the flusher folds it in shortly after, surfacing its progress in /v1/stats.
func TestWALAppendAcksThenFlushes(t *testing.T) {
	s, ts := newTestServer(t, Config{
		WAL: true, WALDir: t.TempDir(),
		FlushRows: 1 << 30, FlushBytes: 1 << 30, FlushInterval: 20 * time.Millisecond,
		CheckpointBytes: -1,
	})
	register(t, ts.URL, droughtRequest())

	code, b := post(t, ts.URL+"/v1/datasets/drought/append", api.AppendRequest{CSV: appendCSV})
	if code != http.StatusOK {
		t.Fatalf("append: %d %s", code, b)
	}
	var ar api.AppendResponse
	if err := json.Unmarshal(b, &ar); err != nil {
		t.Fatal(err)
	}
	// The ack carries the durable log position and the still-serving version:
	// the rebuild has not happened yet.
	if ar.Appended != 2 || ar.WALSeq != 1 || ar.PendingRows != 2 {
		t.Fatalf("append ack = %+v, want appended 2, wal_seq 1, pending 2", ar)
	}
	if ar.Version != 1 || ar.Rows != 8 {
		t.Fatalf("append ack version/rows = %d/%d, want the pre-flush 1/8", ar.Version, ar.Rows)
	}

	ing := entry(t, s, "drought").ing
	waitWAL(t, ing, "first flush", quiescent)

	ds := datasetStats(t, ts.URL, "drought")
	if ds.Version != 2 || ds.Rows != 10 {
		t.Errorf("post-flush version/rows = %d/%d, want 2/10", ds.Version, ds.Rows)
	}
	if ds.WAL == nil {
		t.Fatal("stats has no WAL block for a WAL-backed dataset")
	}
	if ds.WAL.LastSeq != 1 || ds.WAL.FlushedSeq != 1 || ds.WAL.Flushes == 0 || ds.WAL.LastFlush == "" {
		t.Errorf("WAL status = %+v, want last_seq 1 flushed_seq 1 with a recorded flush", ds.WAL)
	}

	// The flushed rows serve: a complaint about Raya 1986 ranks the appended
	// village.
	id := createSession(t, ts.URL)
	rec := recommendBytes(t, ts.URL, id, "agg=mean measure=severity dir=low district=Raya year=1986")
	if !bytes.Contains(rec, []byte("Bala")) {
		t.Errorf("recommendation does not reflect the flushed append:\n%s", rec)
	}
}

// TestWALFlushRowsThresholdKicks proves the size threshold flushes without
// waiting for the interval: the ticker is an hour out, so only the row
// threshold can fold the batch.
func TestWALFlushRowsThresholdKicks(t *testing.T) {
	s, ts := newTestServer(t, Config{
		WAL: true, WALDir: t.TempDir(),
		FlushRows: 2, FlushBytes: 1 << 30, FlushInterval: time.Hour,
		CheckpointBytes: -1,
	})
	register(t, ts.URL, droughtRequest())

	code, b := post(t, ts.URL+"/v1/datasets/drought/append", api.AppendRequest{CSV: appendCSV})
	if code != http.StatusOK {
		t.Fatalf("append: %d %s", code, b)
	}
	waitWAL(t, entry(t, s, "drought").ing, "threshold flush", quiescent)
	if ds := datasetStats(t, ts.URL, "drought"); ds.Version != 2 || ds.Rows != 10 {
		t.Errorf("post-flush version/rows = %d/%d, want 2/10", ds.Version, ds.Rows)
	}
}

// TestWALCrashRecoveryByteIdentical is the core durability contract: rows
// acknowledged into the log but never flushed (the process "crashes" between
// WAL commit and snapshot swap) replay on re-registration, and the recovered
// dataset answers recommendations byte-identically to a server that ingested
// the same rows synchronously.
func TestWALCrashRecoveryByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		WAL: true, WALDir: dir,
		// Nothing may flush on its own: the rows must survive in the log alone.
		FlushRows: 1 << 30, FlushBytes: 1 << 30, FlushInterval: time.Hour,
		CheckpointBytes: -1,
	}
	s1, ts1 := newTestServer(t, cfg)
	register(t, ts1.URL, droughtRequest())

	code, b := post(t, ts1.URL+"/v1/datasets/drought/append", api.AppendRequest{CSV: appendCSV})
	if code != http.StatusOK {
		t.Fatalf("append: %d %s", code, b)
	}
	var ar api.AppendResponse
	if err := json.Unmarshal(b, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.WALSeq != 1 {
		t.Fatalf("append ack = %+v, want wal_seq 1", ar)
	}

	// Crash: stop the flusher without draining. The pending rows now exist
	// only in the fsynced log; the serving state never saw them.
	ent1 := entry(t, s1, "drought")
	if set := ent1.ds.Version().Set; set.Version() != 1 || set.TotalRows() != 8 {
		t.Fatalf("pre-crash state = v%d/%d rows, the flusher ran early", set.Version(), set.TotalRows())
	}
	if err := ent1.ing.close(false); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// Restart: re-registering the same name replays the log over the base.
	_, ts2 := newTestServer(t, cfg)
	register(t, ts2.URL, droughtRequest())
	if ds := datasetStats(t, ts2.URL, "drought"); ds.Rows != 10 || ds.WAL == nil || ds.WAL.LastSeq != 1 {
		t.Fatalf("recovered stats = %+v, want 10 rows with WAL at seq 1", ds)
	}

	// Reference: the same rows ingested synchronously, no WAL involved.
	_, ref := newTestServer(t, Config{})
	register(t, ref.URL, droughtRequest())
	if code, b := post(t, ref.URL+"/v1/datasets/drought/append", api.AppendRequest{CSV: appendCSV}); code != http.StatusOK {
		t.Fatalf("reference append: %d %s", code, b)
	}

	complaint := "agg=mean measure=severity dir=low district=Raya year=1986"
	got := recommendBytes(t, ts2.URL, createSession(t, ts2.URL), complaint)
	want := recommendBytes(t, ref.URL, createSession(t, ref.URL), complaint)
	if !bytes.Equal(got, want) {
		t.Errorf("recovered recommendation differs from synchronous ingestion:\nrecovered: %s\nreference: %s", got, want)
	}

	// New appends continue the sequence past the replayed frames.
	code, b = post(t, ts2.URL+"/v1/datasets/drought/append",
		api.AppendRequest{CSV: "district,village,year,severity\nRaya,Bora,1986,3\n"})
	if code != http.StatusOK {
		t.Fatalf("post-recovery append: %d %s", code, b)
	}
	var ar2 api.AppendResponse
	if err := json.Unmarshal(b, &ar2); err != nil {
		t.Fatal(err)
	}
	if ar2.WALSeq != 2 {
		t.Errorf("post-recovery wal_seq = %d, want 2", ar2.WALSeq)
	}
}

// TestWALCheckpointTruncatesAndRecovers drives the log over CheckpointBytes,
// asserts the serving state checkpoints to a sequence-stamped .rst and the
// log truncates, then crashes and recovers from checkpoint + empty log —
// including the guarantee that fresh appends never reuse checkpointed
// sequence numbers.
func TestWALCheckpointTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		WAL: true, WALDir: dir,
		FlushRows: 1, FlushBytes: 1 << 30, FlushInterval: time.Hour,
		CheckpointBytes: 1, // every quiescent flush checkpoints
	}
	s1, ts1 := newTestServer(t, cfg)
	register(t, ts1.URL, droughtRequest())
	ing := entry(t, s1, "drought").ing

	for i, csv := range []string{
		appendCSV,
		"district,village,year,severity\nRaya,Bora,1986,3\nRaya,Bora,1987,2\n",
	} {
		if code, b := post(t, ts1.URL+"/v1/datasets/drought/append", api.AppendRequest{CSV: csv}); code != http.StatusOK {
			t.Fatalf("append %d: %d %s", i, code, b)
		}
		want := uint64(i + 1)
		waitWAL(t, ing, fmt.Sprintf("checkpoint %d", want), func(ws *api.WALStatus) bool {
			// 13 is the wal header size: a truncated log holds nothing else.
			return quiescent(ws) && ws.FlushedSeq == want && ws.SizeBytes == 13
		})
	}

	// Stop the ingester first: a checkpoint truncates the log (what waitWAL
	// saw) before it sweeps its predecessors.
	if err := entry(t, s1, "drought").ing.close(false); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// Exactly one checkpoint survives, stamped with the last folded sequence.
	cks, err := filepath.Glob(filepath.Join(dir, "drought.ckpt.*.rst"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) != 1 || !strings.HasSuffix(cks[0], "drought.ckpt.00000000000000000002.rst") {
		t.Fatalf("checkpoints on disk = %v, want exactly the seq-2 one", cks)
	}

	s2, ts2 := newTestServer(t, cfg)
	// The final append's flush and checkpoint run in the background: drain
	// them before TempDir's cleanup removes the directory under them.
	t.Cleanup(func() { s2.Close() })
	register(t, ts2.URL, droughtRequest())
	if ds := datasetStats(t, ts2.URL, "drought"); ds.Rows != 12 {
		t.Fatalf("recovered rows = %d, want 12 (checkpoint superseded the base CSV)", ds.Rows)
	}

	// The recovered log is empty, but its sequence numbering starts past the
	// checkpoint — a fresh append at seq ≤ 2 would be skipped on replay.
	code, b := post(t, ts2.URL+"/v1/datasets/drought/append",
		api.AppendRequest{CSV: "district,village,year,severity\nOfla,Dela,1986,5\n"})
	if code != http.StatusOK {
		t.Fatalf("post-recovery append: %d %s", code, b)
	}
	var ar api.AppendResponse
	if err := json.Unmarshal(b, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.WALSeq != 3 {
		t.Errorf("post-checkpoint wal_seq = %d, want 3", ar.WALSeq)
	}
}

// TestRetentionOverHTTP registers with a per-request retention window and
// asserts the initial pass, append-triggered passes and /v1/stats reporting.
func TestRetentionOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := droughtRequest()
	req.Retention = "720h" // 30 days on a year-granularity dimension
	req.RetentionDim = "year"
	register(t, ts.URL, req)

	// Registration already enforced the window: the newest event is 1987, so
	// every 1986 row (4 of 8) fell behind the horizon.
	ds := datasetStats(t, ts.URL, "drought")
	if ds.Rows != 4 {
		t.Fatalf("rows after registration = %d, want 4 (1986 dropped)", ds.Rows)
	}
	if ds.Retention == nil {
		t.Fatal("stats has no retention block")
	}
	if ds.Retention.Dim != "year" || ds.Retention.DroppedRows != 4 || !strings.HasPrefix(ds.Retention.Horizon, "1986-12-02") {
		t.Errorf("retention status = %+v, want dim year, 4 dropped, horizon 1986-12-02", ds.Retention)
	}

	// A newer event advances the horizon: appending 1988 drops the 1987 rows.
	code, b := post(t, ts.URL+"/v1/datasets/drought/append",
		api.AppendRequest{CSV: "district,village,year,severity\nRaya,Bora,1988,3\n"})
	if code != http.StatusOK {
		t.Fatalf("append: %d %s", code, b)
	}
	ds = datasetStats(t, ts.URL, "drought")
	if ds.Rows != 1 || ds.Retention.DroppedRows != 8 {
		t.Errorf("after 1988 append: rows = %d dropped = %d, want 1 / 8", ds.Rows, ds.Retention.DroppedRows)
	}
	if !strings.HasPrefix(ds.Retention.Horizon, "1987-12-02") {
		t.Errorf("horizon = %q, want 1987-12-02…", ds.Retention.Horizon)
	}
}

func TestRetentionRegistrationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name            string
		window, dim     string
		wantInErrorBody string
	}{
		{"unparsable window", "soon", "year", "retention"},
		{"negative window", "-24h", "year", "retention"},
		{"missing dim", "720h", "", "retention dimension"},
		{"unknown dim", "720h", "epoch", "epoch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := droughtRequest()
			req.Name = "drought-" + strings.ReplaceAll(tc.name, " ", "-")
			req.Retention = tc.window
			req.RetentionDim = tc.dim
			code, b := post(t, ts.URL+"/v1/datasets", req)
			if code < 400 {
				t.Fatalf("registration succeeded (%d), want an error", code)
			}
			if !strings.Contains(string(b), tc.wantInErrorBody) {
				t.Errorf("error %s does not mention %q", b, tc.wantInErrorBody)
			}
		})
	}
}

// TestAppendCSVRowErrors pins the row/column context on append parse errors:
// a bad value is reported with its 1-based data row, its CSV line, and the
// offending column.
func TestAppendCSVRowErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	register(t, ts.URL, droughtRequest())

	cases := []struct {
		name string
		csv  string
		want []string
	}{
		{"bad measure on row 2",
			"district,village,year,severity\nRaya,Bala,1986,4\nRaya,Bala,1987,oops\n",
			[]string{`row 2 (line 3) column "severity"`}},
		{"non-finite on row 1",
			"district,village,year,severity\nRaya,Bala,1986,+Inf\n",
			[]string{`row 1 (line 2) column "severity"`, "non-finite"}},
		{"malformed quoting on row 2",
			"district,village,year,severity\nRaya,Bala,1986,4\n\"torn,Bala,1987,5\n",
			[]string{"reading append CSV row 2 (line 3)"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, b := post(t, ts.URL+"/v1/datasets/drought/append", api.AppendRequest{CSV: tc.csv})
			if code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (%s)", code, b)
			}
			var env struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(b, &env); err != nil {
				t.Fatal(err)
			}
			for _, want := range tc.want {
				if !strings.Contains(env.Error, want) {
					t.Errorf("error %q does not mention %q", env.Error, want)
				}
			}
		})
	}
}

// TestMultiLineRecordErrorLine: a quoted field spanning lines moves every
// later record's line past its row + 1, and a field error or a parse error
// names the line the record is on, in a CSV file and in an append body alike.
func TestMultiLineRecordErrorLine(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	register(t, ts.URL, droughtRequest())
	for _, tc := range []struct{ body, want string }{
		{"\"Ra\nya\",Bala,1986,4\nRaya,Bala,1987,oops\n", `row 2 (line 4) column "severity"`},
		{"\"Ra\nya\",Bala,1986,4\nRa\"ya,Bala,1987,5\n", "row 2 (line 4)"},
	} {
		_, err := data.ReadCSV(strings.NewReader("district,village,year,severity\n"+tc.body), "t", []string{"severity"}, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ReadCSV(%q) err = %v, want %q", tc.body, err, tc.want)
		}
		code, b := post(t, ts.URL+"/v1/datasets/drought/append", api.AppendRequest{CSV: "district,village,year,severity\n" + tc.body})
		var env struct{ Error string }
		if err := json.Unmarshal(b, &env); err != nil || code != http.StatusBadRequest || !strings.Contains(env.Error, tc.want) {
			t.Errorf("append %q: %d %s, want 400 naming %q", tc.body, code, b, tc.want)
		}
	}
}

// TestEmptyAppendIsNoOp: a header-only append CSV is a no-op on a
// synchronous and on a WAL-backed server alike — 200 with appended 0, the
// served version unchanged, and nothing logged.
func TestEmptyAppendIsNoOp(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"sync", Config{}},
		{"wal", Config{WAL: true, WALDir: t.TempDir(), FlushInterval: time.Hour, CheckpointBytes: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, tc.cfg)
			register(t, ts.URL, droughtRequest())
			code, b := post(t, ts.URL+"/v1/datasets/drought/append", api.AppendRequest{CSV: "district,village,year,severity\n"})
			if code != http.StatusOK {
				t.Fatalf("append: %d %s", code, b)
			}
			var ar api.AppendResponse
			if err := json.Unmarshal(b, &ar); err != nil {
				t.Fatal(err)
			}
			if ar.Appended != 0 || ar.WALSeq != 0 || ar.PendingRows != 0 || ar.Version != 1 || ar.Rows != 8 {
				t.Errorf("empty append ack = %+v, want appended 0 at version 1 with 8 rows", ar)
			}
			if seq, _ := entry(t, s, "drought").ds.LogStatus(); seq != 0 {
				t.Errorf("empty append logged a batch: sequence %d", seq)
			}
		})
	}
}

// TestServerCloseDrainsPending is the graceful-shutdown contract: Close folds
// the pending micro-batch into the serving state before releasing the logs,
// and later appends fail instead of silently losing rows.
func TestServerCloseDrainsPending(t *testing.T) {
	s, ts := newTestServer(t, Config{
		WAL: true, WALDir: t.TempDir(),
		FlushRows: 1 << 30, FlushBytes: 1 << 30, FlushInterval: time.Hour,
		CheckpointBytes: -1,
	})
	register(t, ts.URL, droughtRequest())
	if code, b := post(t, ts.URL+"/v1/datasets/drought/append", api.AppendRequest{CSV: appendCSV}); code != http.StatusOK {
		t.Fatalf("append: %d %s", code, b)
	}

	ent := entry(t, s, "drought")
	if rows := ent.ds.Version().Set.TotalRows(); rows != 8 {
		t.Fatalf("rows folded before Close: %d", rows)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if rows := ent.ds.Version().Set.TotalRows(); rows != 10 {
		t.Errorf("rows after Close = %d, want 10 (pending batch drained)", rows)
	}
	if _, err := s.Append("drought", []store.Row{{Dims: []string{"Raya", "Bora", "1986"}, Measures: []float64{1}}}); err == nil {
		t.Error("append after Close succeeded, want shutdown error")
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestConcurrentIngestRetentionSharded is the -race canary for the ingestion
// subsystem: concurrent recommends, micro-batched WAL appends, stats polls
// and event-time retention on a sharded, cube-enabled dataset. The appended
// 1988 rows advance the horizon mid-run, dropping the 1986 rows while
// recommends keep reading.
func TestConcurrentIngestRetentionSharded(t *testing.T) {
	s, ts := newTestServer(t, Config{
		WAL: true, WALDir: t.TempDir(),
		Shards:    2,
		FlushRows: 4, FlushBytes: 1 << 30, FlushInterval: 2 * time.Millisecond,
		CheckpointBytes: -1,
		Retention:       500 * 24 * time.Hour,
		RetentionDim:    "year",
	})
	register(t, ts.URL, droughtRequest())

	ids := []string{createSession(t, ts.URL), createSession(t, ts.URL)}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			url := ts.URL + "/v1/sessions/" + id + "/recommend"
			for i := 0; i < 8; i++ {
				// 1987 stays inside the window for the whole run, so this
				// complaint is always answerable.
				code, b := post(t, url, api.RecommendRequest{Complaint: "agg=mean measure=severity dir=low district=Ofla year=1987"})
				if code != http.StatusOK && code != http.StatusTooManyRequests {
					errc <- fmt.Errorf("recommend: %d %s", code, b)
					return
				}
			}
		}(id)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			csv := fmt.Sprintf("district,village,year,severity\nRaya,New%02d,1988,%d\n", i, 3+i)
			code, b := post(t, ts.URL+"/v1/datasets/drought/append", api.AppendRequest{CSV: csv})
			if code != http.StatusOK {
				errc <- fmt.Errorf("append %d: %d %s", i, code, b)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if code, b := get(t, ts.URL+"/v1/stats"); code != http.StatusOK {
				errc <- fmt.Errorf("stats: %d %s", code, b)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	waitWAL(t, entry(t, s, "drought").ing, "final flush", quiescent)
	ds := datasetStats(t, ts.URL, "drought")
	// 8 base + 6 appended − 4 dropped (1986 fell 730 days behind 1988).
	if ds.Rows != 10 || ds.Shards != 2 {
		t.Errorf("final stats = %d rows / %d shards, want 10 / 2", ds.Rows, ds.Shards)
	}
	if ds.Retention == nil || ds.Retention.DroppedRows != 4 {
		t.Errorf("retention status = %+v, want 4 dropped rows", ds.Retention)
	}
	if ds.WAL == nil || ds.WAL.LastSeq != 6 || ds.WAL.DroppedRows != 0 {
		t.Errorf("WAL status = %+v, want last_seq 6 with nothing dropped", ds.WAL)
	}

	rec := recommendBytes(t, ts.URL, createSession(t, ts.URL), "agg=mean measure=severity dir=low district=Raya year=1988")
	if !bytes.Contains(rec, []byte("New05")) {
		t.Errorf("final recommendation misses the last appended village:\n%s", rec)
	}
}

// TestWALFlushServesWhatRecoveryKeeps: the flusher folds the log batches it
// holds as recovery replays them, whole: a batch that re-parents Zata is
// skipped with its good row, the batches around it are served. After a crash
// the recovered dataset has the same rows, the same dropped count and the
// same answers as the one that served them.
func TestWALFlushServesWhatRecoveryKeeps(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		WAL: true, WALDir: dir,
		// Only the explicit flush below folds anything.
		FlushRows: 1 << 30, FlushBytes: 1 << 30, FlushInterval: time.Hour,
		CheckpointBytes: -1,
	}
	s1, ts1 := newTestServer(t, cfg)
	register(t, ts1.URL, droughtRequest())
	for _, csv := range []string{
		"Raya,Kukufto,1988,5\n",
		"Raya,Bora,1986,3\nRaya,Zata,1988,4\n", // Zata belongs to Ofla
		"Ofla,Adishim,1988,6\n",
	} {
		if code, b := post(t, ts1.URL+"/v1/datasets/drought/append", api.AppendRequest{CSV: "district,village,year,severity\n" + csv}); code != http.StatusOK {
			t.Fatalf("append: %d %s", code, b)
		}
	}
	ent1 := entry(t, s1, "drought")
	ent1.ing.flush()
	served := datasetStats(t, ts1.URL, "drought")
	if served.Rows != 10 || served.WAL == nil || served.WAL.DroppedRows != 2 {
		t.Fatalf("served stats = %+v, want 10 rows and the poisoned batch's 2 dropped", served)
	}
	complaint := "agg=mean measure=severity dir=low district=Raya year=1986"
	want := recommendBytes(t, ts1.URL, createSession(t, ts1.URL), complaint)

	// Crash, then recover from the log alone.
	if err := ent1.ing.close(false); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	_, ts2 := newTestServer(t, cfg)
	register(t, ts2.URL, droughtRequest())
	recovered := datasetStats(t, ts2.URL, "drought")
	if recovered.Rows != served.Rows || recovered.WAL == nil || recovered.WAL.DroppedRows != served.WAL.DroppedRows {
		t.Fatalf("recovered stats = %+v, served %+v", recovered, served)
	}
	if got := recommendBytes(t, ts2.URL, createSession(t, ts2.URL), complaint); !bytes.Equal(got, want) {
		t.Errorf("recovered recommendation differs from the served one:\nrecovered: %s\nserved:    %s", got, want)
	}
}

// cleanDroughtBatch is a random append body over the drought schema that
// every dataset admits: villages, old and new, keep one district each.
func cleanDroughtBatch(rng *rand.Rand) (csv string, rows []string) {
	villages := [][2]string{{"Ofla", "Adishim"}, {"Ofla", "Zata"}, {"Raya", "Kukufto"}, {"Raya", "Mehoni"}}
	var b strings.Builder
	b.WriteString("district,village,year,severity\n")
	for n := 1 + rng.Intn(6); n > 0; n-- {
		dv := [2]string{[]string{"Ofla", "Raya"}[n%2], fmt.Sprintf("New%d", rng.Intn(8)*2+n%2)}
		if rng.Intn(2) == 0 {
			dv = villages[rng.Intn(len(villages))]
		}
		row := fmt.Sprintf("%s,%s,%d,%g", dv[0], dv[1], 1985+rng.Intn(5), float64(rng.Intn(40))/4)
		b.WriteString(row + "\n")
		rows = append(rows, row)
	}
	return b.String(), rows
}

// servedRows renders every row of a served version, sorted, in the append
// body's column order.
func servedRows(t *testing.T, v *ingest.Version) []string {
	t.Helper()
	var out []string
	for _, snap := range v.Set.Snaps {
		ds, err := snap.Dataset()
		if err != nil {
			t.Fatal(err)
		}
		d, vil, y, sev := ds.Dim("district"), ds.Dim("village"), ds.Dim("year"), ds.Measure("severity")
		for i := range d {
			out = append(out, fmt.Sprintf("%s,%s,%s,%g", d[i], vil[i], y[i], sev[i]))
		}
	}
	sort.Strings(out)
	return out
}

// TestWALAckedRowsServedAfterRecovery: random sequences of clean batches
// appended to a WAL-backed dataset, flushed at random points and at the end,
// then killed and re-registered. Every acknowledged row is served before the
// kill and after the recovery, on one shard and on two, with and without
// checkpoints.
func TestWALAckedRowsServedAfterRecovery(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			WAL: true, WALDir: t.TempDir(),
			FlushRows: 1 << 30, FlushBytes: 1 << 30, FlushInterval: time.Hour,
			CheckpointBytes: []int64{-1, 64}[rng.Intn(2)],
		}
		req := droughtRequest()
		req.Shards = 1 + rng.Intn(2)
		s1, ts1 := newTestServer(t, cfg)
		register(t, ts1.URL, req)
		ent1 := entry(t, s1, "drought")
		want := servedRows(t, ent1.ds.Version())
		for i := 1; i <= 2+rng.Intn(6); i++ {
			csv, rows := cleanDroughtBatch(rng)
			code, b := post(t, ts1.URL+"/v1/datasets/drought/append", api.AppendRequest{CSV: csv})
			var ar api.AppendResponse
			if code != http.StatusOK || json.Unmarshal(b, &ar) != nil || ar.WALSeq == 0 {
				t.Fatalf("seed %d batch %d: append %d %s", seed, i, code, b)
			}
			want = append(want, rows...)
			if rng.Intn(3) == 0 {
				ent1.ing.flush()
			}
		}
		sort.Strings(want)
		ent1.ing.flush()
		if got := servedRows(t, ent1.ds.Version()); !slices.Equal(got, want) {
			t.Fatalf("seed %d: served after flush:\n%v\nwant acknowledged:\n%v", seed, got, want)
		}
		if err := ent1.ing.close(false); err != nil {
			t.Fatal(err)
		}
		ts1.Close()

		s2, ts2 := newTestServer(t, cfg)
		register(t, ts2.URL, req)
		if got := servedRows(t, entry(t, s2, "drought").ds.Version()); !slices.Equal(got, want) {
			t.Fatalf("seed %d: served after recovery:\n%v\nwant acknowledged:\n%v", seed, got, want)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendRefusesUnadmittableValue: a body whose second data row holds the
// reserved group-key separator is refused with 422 naming row 2, on a
// synchronous and on a WAL-backed server. The WAL-backed one logs nothing:
// its sequence does not advance, no row is dropped later, and the next clean
// append is served.
func TestAppendRefusesUnadmittableValue(t *testing.T) {
	bad := api.AppendRequest{CSV: "district,village,year,severity\nRaya,Bora,1986,3\nRaya,B\x1fx,1987,4\n"}
	for _, cfg := range []Config{{}, {
		WAL: true, WALDir: t.TempDir(),
		FlushRows: 1 << 30, FlushBytes: 1 << 30, FlushInterval: time.Hour, CheckpointBytes: -1,
	}} {
		s, ts := newTestServer(t, cfg)
		register(t, ts.URL, droughtRequest())
		code, b := post(t, ts.URL+"/v1/datasets/drought/append", bad)
		if code != http.StatusUnprocessableEntity || !strings.Contains(string(b), "row 2 ") {
			t.Fatalf("WAL %v: append = %d %s, want 422 naming row 2", cfg.WAL, code, b)
		}
		if !cfg.WAL {
			continue
		}
		ent := entry(t, s, "drought")
		ent.ing.flush()
		if ds := datasetStats(t, ts.URL, "drought"); ds.Rows != 8 || ds.WAL.LastSeq != 0 || ds.WAL.DroppedRows != 0 {
			t.Fatalf("after the refused append: %d rows, WAL %+v; want 8 rows, nothing logged or dropped", ds.Rows, ds.WAL)
		}
		code, b = post(t, ts.URL+"/v1/datasets/drought/append", api.AppendRequest{CSV: "district,village,year,severity\nRaya,Bora,1986,3\n"})
		var ar api.AppendResponse
		if code != http.StatusOK || json.Unmarshal(b, &ar) != nil || ar.WALSeq != 1 {
			t.Fatalf("clean append = %d %s, want 200 with wal_seq 1", code, b)
		}
		ent.ing.flush()
		if ds := datasetStats(t, ts.URL, "drought"); ds.Rows != 9 || ds.WAL.DroppedRows != 0 {
			t.Fatalf("after the clean append: %d rows, WAL %+v; want 9 rows served", ds.Rows, ds.WAL)
		}
	}
}
