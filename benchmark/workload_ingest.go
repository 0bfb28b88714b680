package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/server"
	"repro/reptile"
	"repro/reptile/api"
)

// The feed's offered load, fixed here and in BENCHMARK.json: 20 batches of
// 100 rows per second.
const (
	batchRows     = 100
	batchesPerSec = 20
	pollEvery     = 10 * time.Millisecond
	// probeReserveRows is the reserve every workload's dataset carries so a
	// traced run can feed the layer pass's short ingest probe.
	probeReserveRows = (probeSeconds + 2) * batchesPerSec * batchRows
)

// ingestWorkload runs a WAL-backed server with default flush and checkpoint
// thresholds: one open-loop writer appends on a fixed schedule while one
// closed-loop reader walks the interactive script and a poller watches
// /v1/stats for the rows to become visible.
type ingestWorkload struct {
	in      *inputs
	seed    int64
	script  []sessionPlan
	batches []string
	h       *harness
	walDir  string
	setups  int
	// next is the first batch not yet sent to the current instance; acked
	// lists the batches it acknowledged. The feed is timed, so how many
	// batches a window sends varies by one or two; the check tops the feed
	// up to target batches, so the recovered dataset — and the answers
	// digest — is the same for every run of a seed.
	next   int
	acked  []int
	target int
	// walStart is the dataset's WAL status when the current instance came
	// up, the base of the ingest.* deltas; fedSeconds is how long the feed
	// has run against it.
	walStart   api.WALStatus
	fedSeconds float64
	// check restarts the server, so it runs once; a traced run needs its
	// recovery time before the run's answer check asks for the digest.
	checked     bool
	checkDigest string
	checkErr    error
	recoverMS   float64
}

func (w *ingestWorkload) prepare(cfg runConfig) (*inputs, error) {
	// Enough reserve rows for every window of the run plus slack for a
	// window that overruns while draining.
	n := int(cfg.seconds*batchesPerSec)*2 + 8*batchesPerSec
	in := &inputs{g: generate(cfg.shape(shapeTall), cfg.seed, n*batchRows), dir: cfg.workDir}
	return in, w.adopt(in, cfg.seed, cfg.seconds)
}

// adopt scripts the workload over existing inputs and writes the snapshot
// file it registers; the layer pass uses it to probe another workload's
// dataset.
func (w *ingestWorkload) adopt(in *inputs, seed int64, seconds float64) error {
	w.in, w.seed = in, seed
	w.script = in.g.userScript(seed, closedLoopUsers, scriptBlocks)
	w.batches = in.g.appendBatches(batchRows)
	if w.target = int(seconds*batchesPerSec) + 2*batchesPerSec; w.target > len(w.batches) {
		return fmt.Errorf("feed of %g s needs %d batches, the reserve holds %d", seconds, w.target, len(w.batches))
	}
	if _, err := os.Stat(in.plainRSTPath()); err == nil {
		return nil
	}
	return in.snapshot().WriteFile(in.plainRSTPath())
}

func (w *ingestWorkload) serverConfig() server.Config {
	return server.Config{WAL: true, WALDir: w.walDir}
}

func (w *ingestWorkload) registration() api.RegisterDatasetRequest {
	return api.RegisterDatasetRequest{Name: w.in.name(), Path: w.in.plainRSTPath()}
}

func (w *ingestWorkload) setup() error {
	if err := w.close(); err != nil {
		return err
	}
	w.setups++
	w.next, w.acked, w.fedSeconds = 0, nil, 0
	w.walDir = filepath.Join(w.in.dir, fmt.Sprintf("wal%d", w.setups))
	if err := os.MkdirAll(w.walDir, 0o755); err != nil {
		return err
	}
	h, err := startServer(w.serverConfig())
	if err != nil {
		return err
	}
	w.h = h
	if err := registerAndWarm(h, w.registration(), w.in.g); err != nil {
		return err
	}
	st, err := w.walStatus()
	if err != nil {
		return err
	}
	w.walStart = *st
	return nil
}

// walStatus reads the dataset's WAL block from /v1/stats.
func (w *ingestWorkload) walStatus() (*api.WALStatus, error) {
	st, err := w.h.cl.Stats(context.Background())
	if err != nil {
		return nil, err
	}
	d, ok := st.Datasets[w.in.name()]
	if !ok || d.WAL == nil {
		return nil, fmt.Errorf("dataset %q reports no WAL status", w.in.name())
	}
	return d.WAL, nil
}

// ack is one acknowledged batch waiting to become visible.
type ack struct {
	seq uint64
	at  time.Time
}

func (w *ingestWorkload) window(d time.Duration, tr *tracer) (*window, error) {
	win := &window{sm: newSamples()}
	ctx := context.Background()
	name := w.in.name()
	stop := make(chan struct{})
	acks := make(chan ack, len(w.batches)) // never blocks the writer
	var wg sync.WaitGroup
	var readerLog, writerLog, pollerLog opLog

	wg.Add(1)
	go func() { // reader
		defer wg.Done()
		readerLog = *runUser(w.h.cl, name, w.script, stop, win.sm, tr)
	}()

	start := time.Now()
	first := w.next
	wg.Add(1)
	go func() { // open-loop writer: batch k is due at start + k/rate
		defer wg.Done()
		defer close(acks)
		for k := 0; w.next < len(w.batches); k++ {
			due := start.Add(time.Duration(k) * time.Second / batchesPerSec)
			if wait := time.Until(due); wait > 0 {
				select {
				case <-stop:
					return
				case <-time.After(wait):
				}
			}
			select {
			case <-stop:
				return
			default:
			}
			sent := time.Now()
			win.sm.add("bench.lateness", ms(sent.Sub(due)))
			resp, err := w.h.cl.Append(ctx, name, w.batches[w.next])
			done := time.Now()
			w.next++
			if err == nil && resp.Appended != batchRows {
				err = fmt.Errorf("append acknowledged %d of %d rows", resp.Appended, batchRows)
			}
			if !writerLog.record(err) {
				continue
			}
			w.acked = append(w.acked, w.next-1)
			// Timed from when the batch was due, so a stall charges every
			// batch it delays.
			win.sm.add("ingest.append_ack", ms(done.Sub(due)))
			if tr != nil {
				tr.add("ingest.append", fmt.Sprintf("batch%d", w.next-1), 0, sent, done)
			}
			acks <- ack{seq: resp.WALSeq, at: done}
		}
	}()

	wg.Add(1)
	go func() { // poller: ack → flushed_seq ≥ wal_seq, and the backlog's peak
		defer wg.Done()
		var waiting []ack
		open := true
		t := time.NewTicker(pollEvery)
		defer t.Stop()
		deadline := time.Time{}
		for open || len(waiting) > 0 {
			<-t.C
			for more := true; more && open; {
				select {
				case a, ok := <-acks:
					if !ok {
						open = false
						// Rows acknowledged at the very end get the
						// flusher's interval plus a rebuild to show up.
						deadline = time.Now().Add(5 * time.Second)
					} else {
						waiting = append(waiting, a)
					}
				default:
					more = false
				}
			}
			st, err := w.walStatus()
			if !pollerLog.record(err) {
				continue
			}
			now := time.Now()
			win.sm.add("ingest.pending_rows", float64(st.PendingRows))
			for len(waiting) > 0 && st.FlushedSeq >= waiting[0].seq {
				win.sm.add("ingest.visibility_lag", ms(now.Sub(waiting[0].at)))
				waiting = waiting[1:]
			}
			if !open && now.After(deadline) && len(waiting) > 0 {
				pollerLog.record(fmt.Errorf("%d acknowledged batches not visible 5 s after the feed stopped", len(waiting)))
				return
			}
		}
	}()

	time.Sleep(d)
	close(stop)
	win.elapsed = time.Since(start)
	w.fedSeconds += win.elapsed.Seconds()
	wg.Wait()
	win.ops.merge(&readerLog)
	win.ops.merge(&writerLog)
	win.ops.merge(&pollerLog)
	win.sm.add("ingest.rows_sent", float64((w.next-first)*batchRows))
	return win, nil
}

// check is the durability check: close the server, bring a new one up on the
// same WAL directory, register the same base file, and require exactly
// base + acknowledged rows and answers byte-equal to an engine built
// directly over those rows.
func (w *ingestWorkload) check() (string, error) {
	if !w.checked {
		w.checked = true
		w.checkDigest, w.checkErr = w.recoverAndCompare()
	}
	return w.checkDigest, w.checkErr
}

func (w *ingestWorkload) recoverAndCompare() (string, error) {
	if w.next > w.target {
		return "", fmt.Errorf("the feed sent %d batches, more than the %d its schedule allows", w.next, w.target)
	}
	for ; w.next < w.target; w.next++ {
		resp, err := w.h.cl.Append(context.Background(), w.in.name(), w.batches[w.next])
		if err != nil {
			return "", fmt.Errorf("topping the feed up: %w", err)
		}
		if resp.Appended != batchRows {
			return "", fmt.Errorf("append acknowledged %d of %d rows", resp.Appended, batchRows)
		}
		w.acked = append(w.acked, w.next)
	}
	if err := w.close(); err != nil {
		return "", err
	}
	start := time.Now()
	h, err := startServer(w.serverConfig())
	if err != nil {
		return "", err
	}
	w.h = h
	info, err := h.cl.RegisterDataset(context.Background(), w.registration())
	if err != nil {
		return "", err
	}
	w.recoverMS = ms(time.Since(start))
	rows := append([]row(nil), w.in.g.base...)
	for _, b := range w.acked {
		rows = append(rows, w.in.g.reserve[b*batchRows:(b+1)*batchRows]...)
	}
	if info.Rows != len(rows) {
		return "", fmt.Errorf("recovered %d rows, want %d base + %d acknowledged = %d",
			info.Rows, len(w.in.g.base), len(w.acked)*batchRows, len(rows))
	}
	ref, err := reptile.New(w.in.g.dataset(w.in.name(), rows))
	if err != nil {
		return "", err
	}
	defer ref.Close()
	return checkHTTPAgainst(h, w.in.name(), ref, w.in.g.probes(w.seed, scriptStates, 2*len(scriptStates)))
}

func (w *ingestWorkload) scriptDigest() string {
	return jsonDigest(struct {
		Script     []sessionPlan
		Batches    []string
		PerSec     int
		BatchRows  int
		PollerStep time.Duration
	}{w.script, w.batches, batchesPerSec, batchRows, pollEvery})
}

func (w *ingestWorkload) replayStates() []state {
	return scriptStates
}

// close shuts the server down before its WAL directory goes away with the
// run's scratch directory.
func (w *ingestWorkload) close() error {
	if w.h == nil {
		return nil
	}
	err := w.h.close()
	w.h = nil
	return err
}
