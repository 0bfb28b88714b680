// Package ingest is the one lifecycle of a served dataset, shared by the HTTP
// server and the SDK: open a shard.Set (N ≥ 1 shards — an unpartitioned
// dataset is the one-shard Set), recover its durable state, apply appends,
// and checkpoint.
//
//   - Open/Recover build the first Version: Recover first restores durable
//     state — the newest checkpoint in the log directory supersedes the
//     caller's base, every log batch past the checkpoint's sequence replays
//     onto it (a poisoned batch is skipped and counted, never fatal) — then
//     both partition when asked, run the retention pass, materialize cubes,
//     and build the engine.
//   - Apply folds rows into a successor Version: Set.Append, retention,
//     engine, atomic swap. Set.Append never mutates its receiver, so a failed
//     apply leaves the served Version exactly as it was. Fold does the same
//     for a list of logged batches, skipping the rejected ones whole, as
//     Recover's replay does.
//   - Save/Checkpoint serialize the current Version through a temp file,
//     fsync, rename and directory sync, and only then truncate the log.
//
// A checkpoint's file name carries the last log sequence folded into it
// (<name>.ckpt.<seq>.rst), so the rename that publishes it commits the data
// and the replay position together; truncating the log afterwards is an
// optimization that can be skipped without losing or duplicating rows.
//
// The package is the only owner of internal/wal in the module
// (internal/lint's TestImportRules holds the server and the SDK to it).
package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/wal"
)

// Options is a dataset's tuning, fixed when it is opened.
type Options struct {
	// Shards ≥ 2 partitions an unpartitioned base on ShardKey (empty: the
	// first hierarchy's root). A base — or recovered checkpoint — that is
	// already partitioned keeps its own topology.
	Shards   int
	ShardKey string
	// Cube materializes every shard's rollup cube at open; appends then
	// maintain it by delta-merge.
	Cube bool
	// Retention > 0 drops, at open and after every apply, the rows whose
	// event time on RetentionDim falls more than the window behind the
	// dataset's newest event.
	Retention    time.Duration
	RetentionDim string
	// Engine configures the core engine built over every version.
	Engine core.Options
}

// Version is one immutable version of a served dataset: the shard set and the
// engine built over it. Readers load it once per request; a concurrent apply
// swaps in a successor without disturbing them.
type Version struct {
	Set *shard.Set
	Eng *core.Engine
	// Dropped and Horizon are the retention pass's running totals as of this
	// version: rows dropped since open and the newest enforced cut-off.
	Dropped uint64
	Horizon time.Time
}

// Dataset is one served dataset: its current Version, the optional
// write-ahead log, and the options every successor version is built with. It
// is safe for concurrent use.
type Dataset struct {
	opts Options
	// Skipped counts the logged rows recovery could not fold (poisoned
	// batches); fixed once Recover returns.
	Skipped uint64

	// mu serializes Apply, Append and Save, so two batches cannot both build
	// on the same version and lose one of the two.
	mu  sync.Mutex
	cur atomic.Pointer[Version]

	// logMu guards log, which is nil when the dataset is not logged, and
	// closed. dir and name locate the log and its checkpoints.
	logMu     sync.Mutex
	log       *wal.WAL
	closed    bool
	dir, name string
}

// Open builds an unlogged dataset over base. On error the caller still owns
// base (and its file mapping, if any).
func Open(base *shard.Set, o Options) (*Dataset, error) {
	d := &Dataset{opts: o}
	if err := d.start(base); err != nil {
		return nil, err
	}
	return d, nil
}

// Recover builds a logged dataset: it restores the durable state kept under
// name in dir — the newest checkpoint, which supersedes base, plus every log
// batch committed after it — and keeps the log open for new appends. name is
// used through FileName. Sequence numbers the checkpoint covers are never
// reused, even when the checkpoint outlived its log. On error the caller
// still owns base.
func Recover(dir, name string, base *shard.Set, o Options) (*Dataset, error) {
	d := &Dataset{opts: o, dir: dir, name: FileName(name)}
	ckptPath, ckptSeq, err := newestCheckpoint(d.dir, d.name)
	if err != nil {
		return nil, err
	}
	if ckptPath != "" {
		ckpt, err := shard.Open(ckptPath, false)
		if err != nil {
			return nil, fmt.Errorf("ingest: dataset %q: loading checkpoint: %w", name, err)
		}
		if base.N() > 1 && ckpt.N() == 1 {
			return nil, fmt.Errorf("ingest: dataset %q: checkpoint %s is unsharded but the registration is sharded; remove it or re-register unsharded", name, ckptPath)
		}
		base = ckpt
	}
	log, batches, err := wal.Open(filepath.Join(d.dir, d.name+".wal"))
	if err != nil {
		return nil, err
	}
	d.log = log
	if err := log.AdvanceTo(ckptSeq); err != nil {
		log.Close()
		return nil, err
	}
	var live [][]store.Row
	for _, b := range batches {
		if b.Seq > ckptSeq {
			live = append(live, b.Rows)
		}
	}
	base, d.Skipped, _ = fold(base, live)
	if err := d.start(base); err != nil {
		log.Close()
		return nil, err
	}
	return d, nil
}

// fold folds log batches onto a set: the whole list is coalesced into one
// append first; if that is rejected (a poisoned batch), it falls back batch by
// batch, skipping the rejected ones whole, so damaged history can never make
// a dataset unopenable and a batch is never split. Recovery and the WAL
// flusher (Fold) both fold with it, so a served row is one recovery keeps.
// Returns the folded set, the number of skipped rows and the first rejection.
func fold(set *shard.Set, batches [][]store.Row) (*shard.Set, uint64, error) {
	var all []store.Row
	for _, b := range batches {
		all = append(all, b...)
	}
	next, first := set.Append(all)
	if first == nil {
		return next, 0, nil
	}
	var skipped uint64
	for _, b := range batches {
		next, err := set.Append(b)
		if err != nil {
			skipped += uint64(len(b))
			continue
		}
		set = next
	}
	return set, skipped, first
}

// start builds the first version over set: partitioning when asked, the
// retention pass, cubes, engine.
func (d *Dataset) start(set *shard.Set) error {
	o := d.opts
	if o.Shards >= 2 && set.N() == 1 {
		var err error
		if set, err = shard.Partition(set.Snaps[0], o.Shards, o.ShardKey); err != nil {
			return err
		}
	}
	if o.Retention > 0 && o.RetentionDim == "" {
		return fmt.Errorf("ingest: dataset %q: a retention window needs a retention dimension", set.Schema().Name)
	}
	v, err := d.retain(set, &Version{})
	if err != nil {
		return err
	}
	if o.Cube {
		if err := v.Set.BuildCubes(); err != nil {
			return err
		}
	}
	if v.Eng, err = v.Set.Engine(o.Engine); err != nil {
		return err
	}
	d.cur.Store(v)
	return nil
}

// retain runs the retention pass over set and returns the successor version
// (engine not yet built) carrying prev's running totals forward. A pass that
// drops nothing costs one column scan and keeps set as it is.
func (d *Dataset) retain(set *shard.Set, prev *Version) (*Version, error) {
	v := &Version{Set: set, Dropped: prev.Dropped, Horizon: prev.Horizon}
	if d.opts.Retention <= 0 {
		return v, nil
	}
	kept, dropped, horizon, err := set.Retain(d.opts.RetentionDim, d.opts.Retention)
	if err != nil {
		return nil, err
	}
	v.Set, v.Dropped = kept, v.Dropped+uint64(dropped)
	if !horizon.IsZero() {
		v.Horizon = horizon
	}
	return v, nil
}

// Version returns the version currently served.
func (d *Dataset) Version() *Version { return d.cur.Load() }

// Options returns the tuning the dataset was opened with.
func (d *Dataset) Options() Options { return d.opts }

// Log commits rows to the write-ahead log (fsynced) and returns the batch's
// sequence number; the rows are durable but not yet served — the caller
// folds them in with Apply, in sequence order. A batch holding a row the
// schema cannot take (store.CheckRows) is refused and nothing is logged. On a
// dataset opened without a log it commits nothing and returns 0. It fails
// once the dataset is closed.
func (d *Dataset) Log(rows []store.Row) (uint64, error) {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	schema := d.cur.Load().Set.Schema()
	if d.closed {
		return 0, fmt.Errorf("ingest: dataset %q is closed", schema.Name)
	}
	if d.log == nil {
		return 0, nil
	}
	if err := store.CheckRows(schema, rows); err != nil {
		return 0, err
	}
	return d.log.Append(rows)
}

// Apply folds rows into a successor version — append, retention, engine —
// and swaps it in. Zero rows is a no-op returning the current version. Any
// failure leaves the served version untouched.
func (d *Dataset) Apply(rows []store.Row) (*Version, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.apply(rows)
}

func (d *Dataset) apply(rows []store.Row) (*Version, error) {
	cur := d.cur.Load()
	if len(rows) == 0 {
		return cur, nil
	}
	next, err := cur.Set.Append(rows)
	if err != nil {
		return nil, err
	}
	return d.swap(cur, next)
}

// Fold folds logged batches into one successor version as recovery replays
// them (see fold) and swaps it in: a rejected batch is skipped whole and its
// rows counted in skipped; err is the first rejection. A failure to build the
// successor leaves the served version untouched and counts every row skipped.
func (d *Dataset) Fold(batches [][]store.Row) (skipped uint64, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.cur.Load()
	next, skipped, err := fold(cur.Set, batches)
	if next == cur.Set {
		return skipped, err
	}
	if _, serr := d.swap(cur, next); serr != nil {
		skipped, err = 0, serr
		for _, b := range batches {
			skipped += uint64(len(b))
		}
	}
	return skipped, err
}

// swap builds the version over next — retention, engine — and serves it.
func (d *Dataset) swap(cur *Version, next *shard.Set) (*Version, error) {
	v, err := d.retain(next, cur)
	if err != nil {
		return nil, err
	}
	if v.Eng, err = v.Set.Engine(d.opts.Engine); err != nil {
		return nil, err
	}
	d.cur.Store(v)
	return v, nil
}

// Append is the synchronous ingest step: Log then Apply under one lock, so
// the rows survive a crash (on a logged dataset) before they are served and
// the served row order is the log's.
func (d *Dataset) Append(rows []store.Row) (*Version, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(rows) == 0 {
		return d.cur.Load(), nil
	}
	if _, err := d.Log(rows); err != nil {
		return nil, err
	}
	return d.apply(rows)
}

// Save checkpoints the current version to path and returns it. On a logged
// dataset whose appends all went through Append, the log then truncates (its
// sequence numbering continues): every logged batch is captured in the file,
// durably, before the first log byte goes.
func (d *Dataset) Save(path string) (*Version, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	seq, _ := d.LogStatus()
	v := d.cur.Load()
	return v, d.checkpoint(v, path, seq)
}

// Checkpoint serializes the current version to the dataset's
// sequence-stamped checkpoint file and sweeps every other checkpoint. The
// caller guarantees the current version folds exactly the batches up to seq
// (the quiescent point of a Log/Apply pipeline). The log truncates only if
// nothing newer was logged meanwhile; the checkpoint is valid either way —
// recovery replays the frames past seq.
func (d *Dataset) Checkpoint(seq uint64) error {
	if err := d.checkpoint(d.cur.Load(), checkpointPath(d.dir, d.name, seq), seq); err != nil {
		return err
	}
	// Older checkpoints are superseded, and a stray newer one (from a
	// removed log) would desynchronize replay.
	paths, seqs, _ := checkpoints(d.dir, d.name)
	for i, p := range paths {
		if seqs[i] != seq {
			os.Remove(p)
		}
	}
	return nil
}

// checkpoint is the one checkpoint writer: temp file, fsync, rename,
// directory sync — a crash leaves the old file set or the new file, never a
// torn one — and only then, when the log holds nothing past seq, truncation.
func (d *Dataset) checkpoint(v *Version, path string, seq uint64) error {
	if err := store.WriteFileAtomic(path, true, v.Set.Write); err != nil {
		return fmt.Errorf("ingest: writing checkpoint %s: %w", path, err)
	}
	d.logMu.Lock()
	defer d.logMu.Unlock()
	if d.log == nil || d.log.LastSeq() != seq {
		return nil
	}
	return d.log.Reset()
}

// LogStatus reports the log's last assigned sequence number and byte size
// (zeros when the dataset is not logged).
func (d *Dataset) LogStatus() (lastSeq uint64, size int64) {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	if d.log == nil {
		return 0, 0
	}
	return d.log.LastSeq(), d.log.Size()
}

// Close releases the dataset's file-backed resources: the log (synced first;
// the file stays on disk for the next Recover) and the current set's file
// mapping, if any. Logged appends fail afterwards; versions over an eager set
// stay readable. Close is idempotent.
func (d *Dataset) Close() error {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var err error
	if d.log != nil {
		err = d.log.Sync()
		if cerr := d.log.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := d.cur.Load().Set.Close(); err == nil {
		err = cerr
	}
	return err
}

// FileName maps a dataset name to the file-safe stem its log and checkpoints
// live under: runes outside [A-Za-z0-9._-] (CSV paths contain separators)
// become '_', and a stem of only dots gains a suffix so it stays inside the
// directory. A name that maps to itself is already file-safe.
func FileName(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if strings.Trim(b.String(), ".") == "" {
		b.WriteString("dataset")
	}
	return b.String()
}

// checkpointPath stamps the last folded sequence into the checkpoint's file
// name, zero-padded so lexical order is sequence order.
func checkpointPath(dir, name string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s.ckpt.%020d.rst", name, seq))
}

// checkpoints lists the dataset's checkpoint files and the sequence number
// each file name carries.
func checkpoints(dir, name string) (paths []string, seqs []uint64, err error) {
	matches, err := filepath.Glob(filepath.Join(dir, name+".ckpt.*.rst"))
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: scanning checkpoints for %q: %w", name, err)
	}
	for _, m := range matches {
		digits := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(m), name+".ckpt."), ".rst")
		if seq, err := strconv.ParseUint(digits, 10, 64); err == nil {
			paths, seqs = append(paths, m), append(seqs, seq)
		}
	}
	return paths, seqs, nil
}

// newestCheckpoint finds the dataset's highest-sequence checkpoint file.
// Returns "" and 0 when none exists.
func newestCheckpoint(dir, name string) (string, uint64, error) {
	paths, seqs, err := checkpoints(dir, name)
	best, bestSeq := "", uint64(0)
	for i, p := range paths {
		if best == "" || seqs[i] > bestSeq {
			best, bestSeq = p, seqs[i]
		}
	}
	return best, bestSeq, err
}
