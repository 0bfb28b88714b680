package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/data"
	"repro/internal/factor"
	"repro/internal/feature"
	"repro/internal/fmatrix"
	"repro/internal/mat"
	"repro/internal/mlm"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/wal"
)

// layerPass turns a traced run into the per-layer metrics. Everything is
// measured from outside the program: wall clock around each package's
// exported functions on this workload's own inputs (the replay), httptrace
// hooks and the server's stage breakdown on the benchmark's own requests,
// and deltas of the public /v1/stats document.
//
// A sample whose name is a declared metric becomes that metric's value by
// its mean; values that are not a mean of samples are set explicitly. HTTP
// and ingestion numbers come from the traced window itself on the workloads
// that have a server, and from a short probe (a 3 s ingest_mixed over this
// workload's dataset) on the ones that do not, so every traced run reports
// every layer.
type layerPass struct {
	cfg  runConfig
	spec *benchSpec
	in   *inputs
	w    workload
	tr   *tracer
	// sm starts as the traced window's samples and collects the replay's.
	sm     *samples
	values map[string]float64
	// root is the layer pass's span; every replay timer is its child.
	root int
}

// probeSeconds is how long the HTTP + ingest probe runs, at most; a run
// shorter than that probes for its own length.
const probeSeconds = 3

// emRounds is the engine's default EM iteration count (core.Options).
const emRounds = 20

// replayRows is the batch size of the append microbenchmarks.
const replayRows = 256

func (lp *layerPass) set(name string, v float64) { lp.values[name] = v }

// timed runs fn as a child span of the layer pass and records its wall time
// as a sample of metric name.
func (lp *layerPass) timed(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	end := time.Now()
	lp.tr.add(strings.TrimSuffix(name, "_ms"), "", lp.root, start, end)
	lp.sm.add(name, ms(end.Sub(start)))
	return err
}

func (lp *layerPass) run(plain, traced *measured, genS float64, res *result) error {
	lp.values = map[string]float64{}
	id, end := lp.tr.open("bench.layer_pass", "", 0)
	lp.root = id
	defer end()

	if err := lp.httpLayers(traced); err != nil {
		return fmt.Errorf("http layers: %w", err)
	}
	if err := lp.replay(); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if err := lp.sdkLayers(); err != nil {
		return fmt.Errorf("sdk layers: %w", err)
	}

	// runtime: what the traced window cost the allocator and the collector.
	ops := float64(len(traced.sm.get("op")))
	lp.set("runtime.alloc_kb_per_op", float64(traced.after.allocBytes-traced.before.allocBytes)/1024/ops)
	lp.set("runtime.allocs_per_op", float64(traced.after.allocObjects-traced.before.allocObjects)/ops)
	lp.set("runtime.gc_cycles", float64(traced.after.gcCycles-traced.before.gcCycles))
	lp.set("runtime.gc_pause_ms", float64(traced.after.gcPauseNs-traced.before.gcPauseNs)/1e6)
	lp.set("runtime.heap_peak_mb", traced.heapPeakMB)

	// bench: numbers that qualify the others.
	lp.set("bench.gen_s", genS)
	p50Plain, p50Traced := median(plain.sm.get("op")), median(traced.sm.get("op"))
	lp.set("bench.trace_overhead_share", (p50Traced-p50Plain)/p50Plain)
	lp.set("bench.open_loop_lateness_p95_ms", quantile(sortedCopy(lp.sm.get("bench.lateness")), 0.95))

	// A declared metric without an explicit value is the mean of the samples
	// recorded under its name.
	for _, m := range lp.spec.PerLayer {
		if _, ok := lp.values[m.Name]; ok {
			continue
		}
		if xs := lp.sm.get(m.Name); len(xs) > 0 {
			lp.values[m.Name] = mean(xs)
			res.SampleCounts[m.Name] = len(xs)
		}
	}
	res.emit(lp.spec.PerLayer, lp.values)
	return nil
}

// ---------------------------------------------------------------------------
// client, server, ingest

// httpLayers fills the client.*, server.* and ingest.* metrics.
func (lp *layerPass) httpLayers(traced *measured) error {
	var (
		httpSM   = lp.sm // where client.*/server.* samples are
		httpH    *harness
		ingestW  *ingestWorkload
		probeWin *window
	)
	switch w := lp.w.(type) {
	case *serveWorkload:
		httpH = w.h
	case *ingestWorkload:
		httpH, ingestW = w.h, w
	}
	if ingestW == nil {
		probe := &ingestWorkload{}
		seconds := min(probeSeconds, lp.cfg.seconds)
		if err := probe.adopt(lp.in, lp.cfg.seed, seconds); err != nil {
			return err
		}
		defer probe.close()
		if err := probe.setup(); err != nil {
			return err
		}
		win, err := probe.window(time.Duration(seconds*float64(time.Second)), lp.tr)
		if err != nil {
			return err
		}
		if win.ops.failed > 0 {
			return fmt.Errorf("probe: %d of %d operations failed: %v", win.ops.failed, win.ops.attempted, win.ops.firstErr)
		}
		ingestW, probeWin = probe, win
		if httpH == nil {
			httpH, httpSM = probe.h, win.sm
		}
	}

	// Copy what this pass reports from the probe's samples into the main
	// store. Its core.* stage samples stay behind: core.* describes this
	// workload's own recommends.
	if probeWin != nil {
		prefixes := []string{"ingest.", "bench.lateness"}
		if httpSM != lp.sm {
			prefixes = append(prefixes, "client.", "server.")
		}
		for _, prefix := range prefixes {
			probeWin.sm.copyPrefix(lp.sm, prefix)
		}
	}

	// client: phases of the benchmark's own requests.
	lp.set("client.conn_reused_share", mean(lp.sm.get("client.reused")))
	handlerP50 := median(lp.sm.get("server.handler"))
	lp.set("server.handler_p50_ms", handlerP50)
	clientOps := traced.sm.get("op")
	if httpSM != lp.sm {
		clientOps = probeWin.sm.get("op")
	}
	lp.set("client.unattributed_ms", median(clientOps)-handlerP50)

	// server: counters of the public stats document.
	st, err := httpH.cl.Stats(context.Background())
	if err != nil {
		return err
	}
	lp.set("server.cache_hit_share", float64(st.Cache.Hits)/float64(st.Cache.Hits+st.Cache.Misses))
	lp.set("server.overloaded", float64(st.Endpoints["recommend"].Errors["overloaded"]))
	lp.set("server.session_create_ms", st.Endpoints["create_session"].Latency.MeanMS)
	lp.set("server.drill_ms", st.Endpoints["drill"].Latency.MeanMS)
	lp.set("server.register_ms", st.Endpoints["register"].Latency.MeanMS)

	// ingest: the feed as its user and /v1/stats saw it.
	ws, err := ingestW.walStatus()
	if err != nil {
		return err
	}
	acks := sortedCopy(lp.sm.get("ingest.append_ack"))
	lp.set("ingest.append_ack_p50_ms", quantile(acks, 0.50))
	lp.set("ingest.append_ack_p95_ms", quantile(acks, 0.95))
	lp.set("ingest.visibility_lag_p50_ms", median(lp.sm.get("ingest.visibility_lag")))
	flushes := float64(ws.Flushes - ingestW.walStart.Flushes)
	rows := float64(len(ingestW.acked) * batchRows)
	lp.set("ingest.flushes", flushes)
	lp.set("ingest.rows_per_flush", rows/flushes)
	lp.set("ingest.rows_per_s", rows/ingestW.fedSeconds)
	lp.set("ingest.pending_rows_max", quantile(sortedCopy(lp.sm.get("ingest.pending_rows")), 1))
	lp.set("ingest.dropped_rows", float64(ws.DroppedRows))
	ckpts, err := filepath.Glob(filepath.Join(ingestW.walDir, "*.ckpt.*.rst"))
	if err != nil {
		return err
	}
	lp.set("ingest.checkpoints", float64(len(ckpts)))
	// The durability check restarts the server on the same WAL directory,
	// which is the recovery an operator waits for. On ingest_mixed itself
	// the result is kept for the run's answer check.
	if _, err := ingestW.check(); err != nil {
		return fmt.Errorf("durability check: %w", err)
	}
	lp.set("ingest.recover_ms", ingestW.recoverMS)
	return nil
}

// ---------------------------------------------------------------------------
// replay: data, store, cube, agg, factor, feature, fmatrix, mlm, core, shard, wal

func (lp *layerPass) replay() error {
	in, g := lp.in, lp.in.g
	hs := hierarchies()
	if err := in.ensureFiles(); err != nil {
		return err
	}
	rows := float64(len(g.base))
	batch := g.storeRows(g.reserve[:replayRows])

	// data, store: the read and write paths of a dataset's bytes.
	var ds *data.Dataset
	if err := lp.timed("data.readcsv_ms", func() (err error) {
		ds, err = data.ReadCSVFile(in.csvPath(), g.shape.name, measureNames, hs)
		return err
	}); err != nil {
		return err
	}
	// Encoded here, the snapshot has not derived its dataset yet; one opened
	// from a file has (validation builds it), so Dataset() is rated on this.
	encoded := store.FromDataset(ds)
	if err := lp.timed("store.to_dataset_ms", func() error {
		_, err := encoded.Dataset()
		return err
	}); err != nil {
		return err
	}
	tmp := filepath.Join(in.dir, "replay.rst")
	if err := lp.timed("store.write_ms", func() error { return encoded.WriteFile(tmp) }); err != nil {
		return err
	}
	fi, err := os.Stat(tmp)
	if err != nil {
		return err
	}
	lp.set("store.file_bytes_per_row", float64(fi.Size())/rows)
	var plainSnap *store.Snapshot
	if err := lp.timed("store.open_eager_ms", func() (err error) {
		plainSnap, err = store.OpenFile(in.plainRSTPath())
		return err
	}); err != nil {
		return err
	}
	lp.set("store.resident_column_bytes", float64(plainSnap.ResidentColumnBytes()))
	plainDS, err := plainSnap.Dataset()
	if err != nil {
		return err
	}
	if err := lp.timed("store.open_mapped_ms", func() error {
		m, err := store.OpenMappedFile(in.cubeRSTPath())
		if err != nil {
			return err
		}
		return m.Close()
	}); err != nil {
		return err
	}

	// cube: build, and what an append costs the flusher (builder append with
	// the cube carried along, and the delta merge on its own).
	var built *cube.Cube
	if err := lp.timed("cube.build_ms", func() (err error) {
		built, err = cube.Build(plainDS)
		return err
	}); err != nil {
		return err
	}
	lp.set("cube.cells", float64(built.NumCells()))
	cubeSnap, err := store.OpenFile(in.cubeRSTPath())
	if err != nil {
		return err
	}
	cubeDS, err := cubeSnap.Dataset()
	if err != nil {
		return err
	}
	var next *store.Snapshot
	if err := lp.timed("store.builder_append_ms", func() (err error) {
		next, err = store.NewBuilder(cubeSnap).Append(batch)
		return err
	}); err != nil {
		return err
	}
	nextDS, err := next.Dataset()
	if err != nil {
		return err
	}
	delta, err := cube.BuildRows(nextDS, cubeSnap.NumRows(), next.NumRows())
	if err != nil {
		return err
	}
	if err := lp.timed("cube.merge_ms", func() error {
		_, err := cubeSnap.Cube().Merge(delta)
		return err
	}); err != nil {
		return err
	}

	// factor: the hierarchy sources every fresh engine rebuilds.
	sources := make([]*factor.Source, len(hs))
	if err := lp.timed("factor.source_ms", func() error {
		for i, h := range hs {
			if sources[i], err = factor.SourceFromDataset(cubeDS, h); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// core and below, on the drill states this workload's script visits:
	// first the engine's own recommend (one worker, so spans do not
	// overlap), then the same fit sequence part by part.
	states := lp.w.replayStates()
	probes := g.probes(lp.cfg.seed+2, states, 2*len(states))
	var fitSum, partSum, fits float64
	for _, p := range probes {
		c, err := core.ParseComplaint(p.Complaint)
		if err != nil {
			return err
		}
		var sess *core.Session
		if err := lp.timed("core.new_engine_ms", func() error {
			eng, err := core.NewEngine(cubeDS, core.Options{Workers: 1})
			if err != nil {
				return err
			}
			sess, err = eng.NewSession(p.State.groupBy())
			return err
		}); err != nil {
			return err
		}
		spans := newSamples()
		id, end := lp.tr.open("core.recommend", "replay."+p.State.String(), lp.root)
		ctx := core.WithSpanRecorder(context.Background(), &coreRecorder{t: lp.tr, sm: spans, req: "replay." + p.State.String(), parent: id})
		err = lp.timed("core.recommend_cold_ms", func() error {
			_, err := sess.RecommendContext(ctx, c)
			return err
		})
		end()
		if err != nil {
			return fmt.Errorf("replaying %q at %s: %w", p.Complaint, p.State, err)
		}
		if err := lp.timed("core.recommend_warm_ms", func() error {
			_, err := sess.Recommend(c)
			return err
		}); err != nil {
			return err
		}
		fit, groupby := sum(spans.get("core.fit_ms")), sum(spans.get("core.groupby_ms"))
		fitSum += fit
		lp.sm.add("replay.fit_ms", fit)
		lp.sm.add("replay.groupby_ms", groupby)

		// The same work through the packages' exported functions.
		scan := true
		for hi, h := range hs {
			if p.State[hi] >= len(h.Attrs) {
				continue
			}
			attrs := drillAttrs(p.State, hi)
			if scan {
				// One scan per state is enough to rate the scan path.
				scan = false
				if err := lp.timed("agg.groupby_scan_ms", func() error {
					agg.GroupBy(plainDS, attrs, c.Measure)
					return nil
				}); err != nil {
					return err
				}
			}
			var groups *agg.Result
			if err := lp.timed("cube.groupby_ms", func() error {
				groups = agg.GroupBy(cubeDS, attrs, c.Measure)
				return nil
			}); err != nil {
				return err
			}
			parts, n, err := lp.fitParts(sources, p.State, hi, groups, baseStats(c.Agg))
			if err != nil {
				return fmt.Errorf("fit parts at %s drilling %s: %w", p.State, h.Name, err)
			}
			partSum += parts
			fits += n
		}
	}
	lp.set("mlm.fits_per_recommend", fits/float64(len(probes)))
	lp.set("bench.fit_unattributed_share", 1-partSum/fitSum)
	lp.set("agg.scan_mrows_per_s", rows/1e6/(mean(lp.sm.get("agg.groupby_scan_ms"))/1e3))
	// core.groupby_ms and core.fit_ms come from the traced window where the
	// benchmark can see inside a recommend (HTTP stages, the recorder); the
	// SDK offers no such seam, so cold sessions take the replay's.
	for _, name := range []string{"fit_ms", "groupby_ms"} {
		if len(lp.sm.get("core."+name)) == 0 {
			lp.sm.copyAs("replay."+name, "core."+name)
		}
	}

	// shard: partitioning, the same recommend on one and two shards (both by
	// scans, so the difference is the scatter-gather), and a routed append.
	rootProbe := g.probes(lp.cfg.seed+3, []state{rootState}, 1)[0]
	var set *shard.Set
	if err := lp.timed("shard.partition_ms", func() (err error) {
		set, err = shard.Partition(plainSnap, 2, "")
		return err
	}); err != nil {
		return err
	}
	eng2, err := set.Engine(core.Options{})
	if err != nil {
		return err
	}
	eng1, err := core.NewEngine(plainDS, core.Options{})
	if err != nil {
		return err
	}
	rootComplaint, err := core.ParseComplaint(rootProbe.Complaint)
	if err != nil {
		return err
	}
	for _, e := range []struct {
		name string
		eng  *core.Engine
	}{{"shard.recommend_n1_ms", eng1}, {"shard.recommend_n2_ms", eng2}} {
		name, eng := e.name, e.eng
		sess, err := eng.NewSession(rootProbe.State.groupBy())
		if err != nil {
			return err
		}
		spans := newSamples()
		ctx := core.WithSpanRecorder(context.Background(), &coreRecorder{t: lp.tr, sm: spans, req: name, parent: lp.root})
		if err := lp.timed(name, func() error {
			_, err := sess.RecommendContext(ctx, rootComplaint)
			return err
		}); err != nil {
			return err
		}
		if eng == eng2 {
			lp.set("core.scatter_ms", sum(spans.get("core.scatter_ms")))
		}
	}
	if err := lp.timed("shard.append_ms", func() error {
		_, err := set.Append(batch)
		return err
	}); err != nil {
		return err
	}

	// wal: fsynced commits of one feed batch, then a replay of the log.
	walPath := filepath.Join(in.dir, "replay.wal")
	log, _, err := wal.Open(walPath)
	if err != nil {
		return err
	}
	const commits = 5
	feed := batch[:batchRows]
	for i := 0; i < commits; i++ {
		if err := lp.timed("wal.append_ms", func() error {
			_, err := log.Append(feed)
			return err
		}); err != nil {
			log.Close()
			return err
		}
	}
	lp.set("wal.bytes_per_row", float64(log.Size())/float64(commits*len(feed)))
	if err := log.Close(); err != nil {
		return err
	}
	return lp.timed("wal.replay_ms", func() error {
		log, batches, err := wal.Open(walPath)
		if err != nil {
			return err
		}
		if len(batches) != commits {
			log.Close()
			return fmt.Errorf("wal replay returned %d batches, want %d", len(batches), commits)
		}
		return log.Close()
	})
}

// drillAttrs is the group-by of state st drilled one level into hierarchy
// hi, in the engine's canonical order: the other hierarchies first, the
// drilled one last.
func drillAttrs(st state, hi int) []string {
	var out []string
	for h, d := range st {
		if h != hi {
			out = append(out, hierarchyAttrs[h][:d]...)
		}
	}
	return append(out, hierarchyAttrs[hi][:st[hi]+1]...)
}

// baseStats lists the statistics a complaint's aggregate needs a model for
// (internal/core keeps the same table unexported).
func baseStats(f agg.Func) []agg.Func {
	switch f {
	case agg.Sum:
		return []agg.Func{agg.Mean, agg.Count}
	case agg.Std:
		return []agg.Func{agg.Mean, agg.Std}
	}
	return []agg.Func{f}
}

// fitParts performs the engine's fit sequence for one candidate hierarchy —
// feature build, design rendering, factorizer, backend, EM, fitted values —
// through the packages' exported functions, timing each part. It returns the
// milliseconds of the parts the engine itself would have run (the trainer its
// auto rule picks) and the number of fits; the other trainer is timed on the
// first statistic too, so both mlm.fit_* metrics exist on every workload.
func (lp *layerPass) fitParts(sources []*factor.Source, st state, hi int, groups *agg.Result, stats []agg.Func) (partsMS, fits float64, err error) {
	part := func(name string, counted bool, fn func() error) error {
		start := time.Now()
		err := lp.timed(name, fn)
		if counted {
			partsMS += ms(time.Since(start))
		}
		return err
	}

	// The factorised view: every hierarchy at its depth, the drilled one a
	// level deeper and last.
	var srcs []*factor.Source
	var depths []int
	for h, d := range st {
		if h != hi && d > 0 {
			srcs = append(srcs, sources[h])
			depths = append(depths, d)
		}
	}
	srcs = append(srcs, sources[hi])
	depths = append(depths, st[hi]+1)
	var fz *factor.Factorizer
	if err := part("factor.new_ms", true, func() (err error) {
		fz, err = factor.New(srcs, depths)
		return err
	}); err != nil {
		return 0, 0, err
	}
	_, rcErr := fz.RowCount()
	enumerable := rcErr == nil
	factorised := enumerable && float64(len(groups.Groups))/fz.N() >= 0.7

	opts := mlm.Options{Iterations: emRounds}
	for si, stat := range stats {
		var fs *feature.Set
		if err := part("feature.build_ms", true, func() (err error) {
			fs, err = feature.BuildWithGroupFeatures(groups, feature.Spec{Target: stat}, nil)
			return err
		}); err != nil {
			return 0, 0, err
		}
		y := make([]float64, len(groups.Groups))
		for gi, g := range groups.Groups {
			y[gi] = g.Stats.Get(stat)
		}
		fits++

		if !factorised || si == 0 {
			counted := !factorised
			var x *mat.Matrix
			if err := part("feature.densex_ms", counted, func() error {
				x = fs.DenseX(groups)
				return nil
			}); err != nil {
				return 0, 0, err
			}
			starts := feature.ClusterStarts(groups)
			var backend *mlm.Dense
			var bz mlm.Backend
			var model *mlm.MultiLevel
			if err := part("mlm.fit_dense_ms", counted, func() (err error) {
				if backend, err = mlm.NewDense(x, starts); err != nil {
					return err
				}
				if bz, err = zBackend(backend, fs.ZMask(), float64(len(groups.Groups))/float64(len(starts))); err != nil {
					return err
				}
				model, err = mlm.FitEMZ(backend, bz, y, opts)
				return err
			}); err != nil {
				return 0, 0, err
			}
			if err := part("mlm.fitted_ms", counted, func() error {
				model.Fitted(backend, bz)
				return nil
			}); err != nil {
				return 0, 0, err
			}
			if counted {
				lp.sm.add("mlm.groups_per_fit", float64(backend.NumRows()))
			}
		}

		if factorised || (si == 0 && enumerable) {
			counted := factorised
			var fm *fmatrix.Matrix
			var backend *mlm.Factorised
			var bz mlm.Backend
			var model *mlm.MultiLevel
			if err := part("mlm.fit_factorised_ms", counted, func() error {
				cols, err := fs.FactorColumns(fz)
				if err != nil {
					return err
				}
				if fm, err = fmatrix.New(fz, cols); err != nil {
					return err
				}
				if backend, err = mlm.NewFactorised(fm); err != nil {
					return err
				}
				if bz, err = zBackend(backend, fs.ZMask(), float64(backend.NumRows())/float64(backend.NumClusters())); err != nil {
					return err
				}
				rowOf, err := groupRows(fz, groups)
				if err != nil {
					return err
				}
				yd := make([]float64, backend.NumRows())
				for gi := range groups.Groups {
					yd[rowOf[gi]] = y[gi]
				}
				model, err = mlm.FitEMZ(backend, bz, yd, opts)
				return err
			}); err != nil {
				return 0, 0, err
			}
			if err := part("mlm.fitted_ms", counted, func() error {
				model.Fitted(backend, bz)
				return nil
			}); err != nil {
				return 0, 0, err
			}
			if counted {
				lp.sm.add("mlm.groups_per_fit", float64(backend.NumRows()))
			}
			if si == 0 {
				// The gram matrix is the factorised trainer's kernel; rated
				// on its own, outside the sum (EM already paid for it).
				if err := part("fmatrix.gram_ms", false, func() error {
					fm.Gram()
					return nil
				}); err != nil {
					return 0, 0, err
				}
			}
		}
	}
	return partsMS, fits, nil
}

// zBackend derives the random-effects backend the engine's default (ZAuto)
// policy picks: intercept-only when clusters are too small to identify a
// coefficient per feature, the feature set's own Z mask otherwise.
func zBackend(backend mlm.Backend, mask []bool, typicalCluster float64) (mlm.Backend, error) {
	if typicalCluster < 3*float64(len(mask)) {
		return mlm.NewInterceptZ(backend), nil
	}
	all, only0 := true, true
	for j, m := range mask {
		all = all && m
		if m && j != 0 {
			only0 = false
		}
	}
	switch {
	case all:
		return backend, nil
	case only0 && mask[0]:
		return mlm.NewInterceptZ(backend), nil
	}
	switch b := backend.(type) {
	case *mlm.Dense:
		return b.SubsetCols(mask)
	case *mlm.Factorised:
		return b.SubsetCols(mask)
	}
	return nil, fmt.Errorf("cannot subset backend %T", backend)
}

// groupRows maps every observed group to its row of the factorised matrix.
func groupRows(fz *factor.Factorizer, groups *agg.Result) ([]int, error) {
	nh := fz.NumHierarchies()
	deep := make([]int, nh)
	for pos := 0; pos < nh; pos++ {
		ch := fz.Chain(pos)
		name := ch.Levels[ch.Depth()-1].Attr
		deep[pos] = -1
		for ai, a := range groups.Attrs {
			if a == name {
				deep[pos] = ai
			}
		}
		if deep[pos] < 0 {
			return nil, fmt.Errorf("factorizer attribute %q missing from group-by %v", name, groups.Attrs)
		}
	}
	rowOf := make([]int, len(groups.Groups))
	leaf := make([]int, nh)
	for gi, g := range groups.Groups {
		for pos := 0; pos < nh; pos++ {
			if leaf[pos] = fz.LeafIndex(pos, g.Vals[deep[pos]]); leaf[pos] < 0 {
				return nil, fmt.Errorf("value %q not in factorizer hierarchy %q", g.Vals[deep[pos]], fz.HierarchyName(pos))
			}
		}
		rowOf[gi] = fz.RowIndexOf(leaf)
	}
	return rowOf, nil
}

// ---------------------------------------------------------------------------
// sdk

// sdkLayers fills the sdk.* metrics: the parts of a cold session per on-disk
// form. The cold-session workload's traced window already holds them; other
// workloads run a few rounds over their own dataset's files.
func (lp *layerPass) sdkLayers() error {
	if _, ok := lp.w.(*coldWorkload); !ok {
		cw := &coldWorkload{in: lp.in, seed: lp.cfg.seed, rounds: lp.in.g.coldRounds(lp.cfg.seed, 3)}
		for i, r := range cw.rounds {
			for _, f := range coldForms {
				req := fmt.Sprintf("replay.round%d.%s", i, f.name)
				id, end := lp.tr.open("sdk.session", req, lp.root)
				lat, _, err := cw.session(f, r, lp.sm, lp.tr, req, id)
				end()
				if err != nil {
					return err
				}
				lp.sm.add("sdk.session."+f.name, ms(lat))
			}
		}
	}
	// Medians throughout, so that the four parts add up to the session.
	for _, f := range coldForms {
		lp.set("sdk.session_p50_ms."+f.name, median(lp.sm.get("sdk.session."+f.name)))
		for _, part := range []string{"open_ms", "complain1_ms", "complain2_ms", "close_ms"} {
			name := "sdk." + part + "." + f.name
			lp.set(name, median(lp.sm.get(name)))
		}
	}
	return nil
}
