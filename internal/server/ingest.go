package server

// Real-time ingestion: micro-batch coalescing over a dataset's write-ahead
// log, checkpoint scheduling and the retention read-out.
//
// With Config.WAL set, an append commits its rows to the dataset's log
// (fsynced) and is acknowledged immediately with the log sequence number; a
// per-dataset flusher goroutine coalesces everything pending into a single
// snapshot rebuild once a size threshold (FlushRows/FlushBytes) is crossed or
// FlushInterval has passed. One rebuild per micro-batch instead of one per
// append is what makes high-rate feeds affordable: the rebuild cost amortizes
// over the whole batch while durability stays per-request.
//
// The log, recovery (newest checkpoint + replay) and the checkpoint writer
// belong to internal/ingest; this file only decides when to fold and when to
// checkpoint.

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/ingest"
	"repro/internal/store"
	"repro/reptile/api"
)

// ingester is one dataset's micro-batch pipeline: the pending rows already
// committed to the dataset's log, and the flusher goroutine folding them into
// the serving state.
type ingester struct {
	srv *Server
	ent *engineEntry

	mu           sync.Mutex
	pending      []store.Row
	pendingBytes int
	lastSeq      uint64 // newest sequence committed to the log
	flushedSeq   uint64 // newest sequence folded into the serving state
	flushes      uint64
	dropped      uint64 // logged rows the flusher (or recovery) could not fold
	lastFlush    time.Time
	lastErr      error
	closed       bool

	kick    chan struct{}
	quit    chan struct{}
	stopped chan struct{}
}

// newIngester builds the pipeline over ent's recovered dataset; the caller
// launches run once the entry is registered.
func newIngester(s *Server, ent *engineEntry) *ingester {
	seq, _ := ent.ds.LogStatus()
	return &ingester{
		srv: s, ent: ent, lastSeq: seq, flushedSeq: seq, dropped: ent.ds.Skipped,
		kick: make(chan struct{}, 1), quit: make(chan struct{}), stopped: make(chan struct{}),
	}
}

// enqueue commits rows to the log and queues them for the next flush. It
// returns the batch's sequence number — the rows are durable — and the
// pending row count, this batch included. An empty batch logs nothing and
// reports the newest sequence and the pending count as they stand, the no-op
// a synchronous append makes of it.
func (ing *ingester) enqueue(rows []store.Row) (seq uint64, pendingRows int, err error) {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if len(rows) == 0 {
		return ing.lastSeq, len(ing.pending), nil
	}
	if ing.closed {
		return 0, 0, fmt.Errorf("server: dataset %q: ingestion is shut down", ing.ent.name)
	}
	seq, err = ing.ent.ds.Log(rows)
	if err != nil {
		return 0, 0, err
	}
	ing.lastSeq = seq
	ing.pending = append(ing.pending, rows...)
	ing.pendingBytes += rowsBytes(rows)
	if len(ing.pending) >= ing.srv.cfg.FlushRows || ing.pendingBytes >= ing.srv.cfg.FlushBytes {
		select {
		case ing.kick <- struct{}{}:
		default:
		}
	}
	return seq, len(ing.pending), nil
}

// run is the flusher loop: it folds the pending micro-batch on every kick
// (size threshold) and at least every FlushInterval, until close.
func (ing *ingester) run() {
	defer close(ing.stopped)
	t := time.NewTicker(ing.srv.cfg.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-ing.kick:
		case <-t.C:
		case <-ing.quit:
			return
		}
		ing.flush()
	}
}

// flush steals the pending micro-batch and folds it into the serving state
// with a single rebuild. The ingester mutex is NOT held across the rebuild,
// so appends keep landing in the log while the successor version builds. A
// batch the builder rejects wholesale (e.g. one poisoned row tripping an FD
// check) is retried row by row so one bad row cannot sink its neighbours;
// rejected rows are counted, recorded, and skipped the same way on replay.
func (ing *ingester) flush() {
	ing.mu.Lock()
	rows := ing.pending
	seq := ing.lastSeq
	ing.pending = nil
	ing.pendingBytes = 0
	ing.mu.Unlock()

	if len(rows) > 0 {
		ds := ing.ent.ds
		if _, err := ds.Apply(rows); err != nil {
			var bad uint64
			for _, row := range rows {
				if _, rerr := ds.Apply([]store.Row{row}); rerr != nil {
					bad++
				}
			}
			ing.mu.Lock()
			ing.lastErr = err
			ing.dropped += bad
			ing.mu.Unlock()
		}
		ing.srv.invalidateDataset(ing.ent)
		ing.mu.Lock()
		ing.flushedSeq = seq
		ing.flushes++
		ing.lastFlush = time.Now()
		ing.mu.Unlock()
	}
	ing.maybeCheckpoint()
}

// maybeCheckpoint checkpoints the serving state (see ingest.Checkpoint) once
// the log outgrows Config.CheckpointBytes. It only runs quiescent — every
// logged batch folded — so the checkpoint captures exactly the batches up to
// its sequence; a busy dataset simply checkpoints on a later pass. The
// ingester mutex is not held while the file serializes: the state at seq is
// immutable, new enqueues only add frames past seq, and the log truncates
// only if none did.
func (ing *ingester) maybeCheckpoint() {
	limit := ing.srv.cfg.CheckpointBytes
	_, size := ing.ent.ds.LogStatus()
	ing.mu.Lock()
	seq := ing.flushedSeq
	quiescent := len(ing.pending) == 0 && ing.lastSeq == seq
	ing.mu.Unlock()
	if limit <= 0 || size < limit || !quiescent {
		return
	}
	if err := ing.ent.ds.Checkpoint(seq); err != nil {
		ing.mu.Lock()
		ing.lastErr = err
		ing.mu.Unlock()
	}
}

// status snapshots the pipeline state for /v1/stats.
func (ing *ingester) status() *api.WALStatus {
	_, size := ing.ent.ds.LogStatus()
	ing.mu.Lock()
	defer ing.mu.Unlock()
	ws := &api.WALStatus{
		LastSeq:      ing.lastSeq,
		FlushedSeq:   ing.flushedSeq,
		PendingRows:  len(ing.pending),
		PendingBytes: ing.pendingBytes,
		SizeBytes:    size,
		Flushes:      ing.flushes,
		DroppedRows:  ing.dropped,
	}
	if !ing.lastFlush.IsZero() {
		ws.LastFlush = ing.lastFlush.UTC().Format(time.RFC3339)
	}
	if ing.lastErr != nil {
		ws.LastError = ing.lastErr.Error()
	}
	return ws
}

// close stops the flusher and releases the log. With drain set, the pending
// micro-batch folds into the serving state and the log fsyncs first — the
// graceful-shutdown path. Without it, pending rows stay only in the log (they
// are already durable) and replay on the next registration — the crash path,
// exercised directly by the recovery tests.
func (ing *ingester) close(drain bool) error {
	ing.mu.Lock()
	if ing.closed {
		ing.mu.Unlock()
		return nil
	}
	ing.closed = true
	ing.mu.Unlock()
	close(ing.quit)
	<-ing.stopped
	if drain {
		ing.flush()
	}
	return ing.ent.ds.Close()
}

// Close shuts ingestion down for process exit: every WAL-backed dataset's
// flusher drains its pending micro-batch into the serving state, the logs
// fsync and close, and further appends fail. Read traffic (sessions,
// recommendations) is unaffected.
func (s *Server) Close() error {
	s.mu.Lock()
	ents := make([]*engineEntry, 0, len(s.engines))
	for _, ent := range s.engines {
		ents = append(ents, ent)
	}
	s.mu.Unlock()
	// Drain in name order so shutdown (flush ordering, first-error
	// reporting) is reproducible run to run.
	sort.Slice(ents, func(i, j int) bool { return ents[i].name < ents[j].name })
	var first error
	for _, ent := range ents {
		if ent.ing == nil {
			continue
		}
		if err := ent.ing.close(true); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// retentionStatus reports the dataset's retention window next to the serving
// version's running totals for /v1/stats; nil when no window is configured.
func retentionStatus(o ingest.Options, v *ingest.Version) *api.RetentionStatus {
	if o.Retention <= 0 {
		return nil
	}
	rs := &api.RetentionStatus{
		Window:      o.Retention.String(),
		Dim:         o.RetentionDim,
		DroppedRows: v.Dropped,
	}
	if !v.Horizon.IsZero() {
		rs.Horizon = v.Horizon.UTC().Format(time.RFC3339)
	}
	return rs
}

// rowsBytes estimates a batch's in-memory payload for the FlushBytes
// threshold.
func rowsBytes(rows []store.Row) int {
	n := 0
	for _, r := range rows {
		for _, d := range r.Dims {
			n += len(d)
		}
		n += 8 * len(r.Measures)
	}
	return n
}
