package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/reptile"
	"repro/reptile/api"
)

// workload is one set of inputs and the traffic run against them. The driver
// in run.go calls prepare once (untimed), setup several times (timed; each
// call replaces the previous instance), window once or twice, check once and
// close once.
type workload interface {
	// prepare generates the inputs and writes what setup reads from disk.
	prepare(cfg runConfig) (*inputs, error)
	// setup takes the inputs on disk to the point where the first operation
	// can be served: open or register, encode, build cubes, warm up.
	setup() error
	// window issues operations for d, then stops issuing and drains. With a
	// tracer, spans are recorded at every layer boundary the benchmark can
	// reach from outside.
	window(d time.Duration, tr *tracer) (*window, error)
	// check evaluates the workload's probe set and returns the SHA-256 of the
	// concatenated recommendation JSON; it fails when two configurations that
	// must agree do not.
	check() (string, error)
	// scriptDigest identifies the generated script (plans, complaints,
	// batches, schedule).
	scriptDigest() string
	// replayStates lists the drill states the script visits, for the layer
	// pass of a traced run.
	replayStates() []state
	close() error
}

// window is what one measured window produced. Headline latencies are the
// "op" samples; everything else is named after the layer quantity it times.
type window struct {
	ops     opLog
	sm      *samples
	elapsed time.Duration
}

// ---------------------------------------------------------------------------
// serve_interactive

// serveWorkload drives the default reptiled configuration (cube on,
// unsharded, eager, LRU on, WAL off) over the tall dataset registered from
// CSV, with two closed-loop users and no think time.
type serveWorkload struct {
	in      *inputs
	seed    int64
	scripts [][]sessionPlan
	h       *harness
}

const closedLoopUsers = 2

func (w *serveWorkload) prepare(cfg runConfig) (*inputs, error) {
	w.in = &inputs{g: generate(cfg.shape(shapeTall), cfg.seed, probeReserveRows), dir: cfg.workDir}
	w.seed = cfg.seed
	for u := 0; u < closedLoopUsers; u++ {
		w.scripts = append(w.scripts, w.in.g.userScript(cfg.seed, u, scriptBlocks))
	}
	return w.in, w.in.writeCSV()
}

// scriptBlocks is how many blocks of sessions a user's script holds before
// it wraps around; far more than any window consumes.
const scriptBlocks = 48

func (w *serveWorkload) setup() error {
	if w.h != nil {
		if err := w.h.close(); err != nil {
			return err
		}
		w.h = nil
	}
	h, err := startServer(server.Config{})
	if err != nil {
		return err
	}
	w.h = h
	return registerAndWarm(h, api.RegisterDatasetRequest{
		Name: w.in.name(), Path: w.in.csvPath(), Measures: measureNames, Hierarchies: hierarchySpec,
	}, w.in.g)
}

// registerAndWarm registers the dataset over HTTP and serves one recommend,
// so lazily built state (hierarchy sources) exists before anything is timed.
func registerAndWarm(h *harness, req api.RegisterDatasetRequest, g *genData) error {
	ctx := context.Background()
	if _, err := h.cl.RegisterDataset(ctx, req); err != nil {
		return fmt.Errorf("registering %s: %w", req.Name, err)
	}
	sess, err := h.cl.CreateSession(ctx, api.CreateSessionRequest{Dataset: req.Name, GroupBy: rootState.groupBy()})
	if err != nil {
		return err
	}
	if _, err := sess.Recommend(ctx, g.complaint(rootState, g.base[0], "mean", measureNames[0], "high")); err != nil {
		return err
	}
	return sess.Release(ctx)
}

func (w *serveWorkload) window(d time.Duration, tr *tracer) (*window, error) {
	return closedLoopWindow(w.h, w.in.name(), w.scripts, d, tr), nil
}

// closedLoopWindow runs one user per script for d. Recommend latencies are
// the window's "op" samples.
func closedLoopWindow(h *harness, dataset string, scripts [][]sessionPlan, d time.Duration, tr *tracer) *window {
	win := &window{sm: newSamples()}
	stop := make(chan struct{})
	logs := make([]*opLog, len(scripts))
	var wg sync.WaitGroup
	start := time.Now()
	for u := range scripts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			logs[u] = runUser(h.cl, dataset, scripts[u], stop, win.sm, tr)
		}()
	}
	time.Sleep(d)
	close(stop)
	win.elapsed = time.Since(start)
	wg.Wait()
	for _, l := range logs {
		win.ops.merge(l)
	}
	return win
}

// scriptStates are the drill states sessionBlock visits: the root, every
// one-drill state and {1,2,2}. Answer checks and the layer pass use them.
var scriptStates = []state{{1, 1, 1}, {2, 1, 1}, {1, 2, 1}, {1, 1, 2}, {1, 2, 2}}

func (w *serveWorkload) check() (string, error) {
	// The reference is the SDK's default engine over the same CSV: no cube,
	// no server, a different group-by path — and it must produce the same
	// bytes the wire carried.
	ref, err := reptile.Open(w.in.csvPath(), reptile.WithMeasures(measureNames...), reptile.WithHierarchies(hierarchySpec))
	if err != nil {
		return "", err
	}
	defer ref.Close()
	return checkHTTPAgainst(w.h, w.in.name(), ref, w.in.g.probes(w.seed, scriptStates, 2*len(scriptStates)))
}

// checkHTTPAgainst evaluates probes over HTTP and on the reference engine and
// requires byte-equal recommendation JSON.
func checkHTTPAgainst(h *harness, dataset string, ref *reptile.Engine, probes []probe) (string, error) {
	ctx := context.Background()
	var all bytes.Buffer
	for _, p := range probes {
		sess, err := h.cl.CreateSession(ctx, api.CreateSessionRequest{Dataset: dataset, GroupBy: p.State.groupBy()})
		if err != nil {
			return "", err
		}
		resp, err := sess.Recommend(ctx, p.Complaint)
		if err != nil {
			return "", fmt.Errorf("probe %q at %s: %w", p.Complaint, p.State, err)
		}
		if err := sess.Release(ctx); err != nil {
			return "", err
		}
		want, err := sdkAnswer(ref, p)
		if err != nil {
			return "", err
		}
		if !bytes.Equal(resp.Recommendation, want) {
			return "", fmt.Errorf("probe %q at %s: HTTP bytes differ from the in-process encoding", p.Complaint, p.State)
		}
		all.Write(want)
	}
	return digest(all.Bytes()), nil
}

// sdkAnswer evaluates one probe on an SDK engine and returns its JSON.
func sdkAnswer(eng *reptile.Engine, p probe) ([]byte, error) {
	sess, err := eng.NewSession(p.State.groupBy())
	if err != nil {
		return nil, err
	}
	rec, err := sess.Complain(p.Complaint)
	if err != nil {
		return nil, fmt.Errorf("probe %q at %s: %w", p.Complaint, p.State, err)
	}
	return json.Marshal(rec)
}

func (w *serveWorkload) scriptDigest() string { return jsonDigest(w.scripts) }

func (w *serveWorkload) replayStates() []state {
	return scriptStates
}

func (w *serveWorkload) close() error {
	if w.h == nil {
		return nil
	}
	err := w.h.close()
	w.h = nil
	return err
}

// ---------------------------------------------------------------------------
// deep_fit

// deepWorkload times one cold recommend at a leaf-level drill state of the
// wide dataset: a fresh engine and a fresh session per operation, so nothing
// but the model fit's own work can be reused.
type deepWorkload struct {
	in   *inputs
	seed int64
	ops  []probe
	ds   *reptile.Dataset
}

// deepOps is the length of the deep_fit script before it wraps around.
const deepOps = 1200

func (w *deepWorkload) prepare(cfg runConfig) (*inputs, error) {
	w.in = &inputs{g: generate(cfg.shape(shapeWide), cfg.seed, probeReserveRows), dir: cfg.workDir}
	w.seed = cfg.seed
	// The script cycles leaf states × aggregates (12 combinations) with
	// seeded tuples; its stream is separate from the probe set's.
	w.ops = w.in.g.probes(cfg.seed+1, leafStates, deepOps)
	return w.in, w.in.writeCSV()
}

func (w *deepWorkload) setup() error {
	snap, err := w.in.csvSnapshot()
	if err != nil {
		return err
	}
	if err := snap.BuildCube(); err != nil {
		return err
	}
	if w.ds, err = snap.Dataset(); err != nil {
		return err
	}
	_, err = coldRecommend(w.ds, w.ops[0])
	return err
}

// freshSession builds a new engine over ds and a session at st.
func freshSession(ds *reptile.Dataset, st state) (*core.Session, error) {
	eng, err := core.NewEngine(ds, core.Options{})
	if err != nil {
		return nil, err
	}
	return eng.NewSession(st.groupBy())
}

// recommend parses and evaluates a complaint; the parse is part of the
// operation, as it is for any caller holding a complaint string.
func recommend(ctx context.Context, sess *core.Session, complaint string) (*core.Recommendation, error) {
	c, err := core.ParseComplaint(complaint)
	if err != nil {
		return nil, err
	}
	return sess.RecommendContext(ctx, c)
}

// coldRecommend evaluates p on a fresh engine and session over ds.
func coldRecommend(ds *reptile.Dataset, p probe) (*core.Recommendation, error) {
	sess, err := freshSession(ds, p.State)
	if err != nil {
		return nil, err
	}
	return recommend(context.Background(), sess, p.Complaint)
}

func (w *deepWorkload) window(d time.Duration, tr *tracer) (*window, error) {
	win := &window{sm: newSamples()}
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		p := w.ops[i%len(w.ops)]
		// Engine and session construction is reported (core.new_engine_ms)
		// but not part of the operation: the operation is the recommend.
		t0 := time.Now()
		sess, err := freshSession(w.ds, p.State)
		win.sm.add("core.new_engine_ms", ms(time.Since(t0)))
		if err != nil {
			win.ops.record(err)
			continue
		}
		ctx := context.Background()
		endSpan := func() {}
		if tr != nil {
			req := fmt.Sprintf("op%d", i)
			id, end := tr.open("core.recommend", req, 0)
			endSpan = end
			ctx = core.WithSpanRecorder(ctx, &coreRecorder{t: tr, sm: win.sm, req: req, parent: id})
		}
		t1 := time.Now()
		_, err = recommend(ctx, sess, p.Complaint)
		lat := time.Since(t1)
		endSpan()
		if win.ops.record(err) {
			win.sm.add("op", ms(lat))
		}
	}
	win.elapsed = time.Since(start)
	return win, nil
}

func (w *deepWorkload) check() (string, error) {
	// Reference: the generator's rows handed straight to an engine — no CSV,
	// no dictionary encoding, no cube.
	ref := w.in.g.dataset(w.in.name(), w.in.g.base)
	var all bytes.Buffer
	for _, p := range w.in.g.probes(w.seed, leafStates, 2*len(leafStates)) {
		got, err := coldRecommend(w.ds, p)
		if err != nil {
			return "", err
		}
		want, err := coldRecommend(ref, p)
		if err != nil {
			return "", err
		}
		gb, err := json.Marshal(got)
		if err != nil {
			return "", err
		}
		wb, err := json.Marshal(want)
		if err != nil {
			return "", err
		}
		if !bytes.Equal(gb, wb) {
			return "", fmt.Errorf("probe %q at %s: cube-backed engine differs from the scan reference", p.Complaint, p.State)
		}
		all.Write(gb)
	}
	return digest(all.Bytes()), nil
}

func (w *deepWorkload) scriptDigest() string { return jsonDigest(w.ops) }

func (w *deepWorkload) replayStates() []state { return leafStates }

func (w *deepWorkload) close() error { return nil }
