package server

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/reptile/api"
)

// Every request and response body on this file's handlers is a reptile/api
// type: the server declares no wire structs of its own, so the protocol the
// Go client (reptile/client) compiles against is by construction the one
// served here.

// maxBodyBytes bounds request bodies; inline CSV datasets are the largest
// legitimate payload.
const maxBodyBytes = 64 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status line is gone; nothing useful remains to send.
		_ = err
	}
}

// writeError sends the v1 error envelope. The HTTP status derives from the
// code, and overload responses carry Retry-After both as a header and in the
// envelope.
func writeError(w http.ResponseWriter, code api.ErrorCode, err error) {
	if sw, ok := w.(*statusWriter); ok {
		// Surface the true error class to the instrumentation middleware, so
		// error counters key on api codes rather than bare HTTP statuses.
		sw.code = code
	}
	e := &api.Error{Message: err.Error(), Code: code}
	if code == api.CodeOverloaded {
		e.RetryAfter = 1
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
	}
	writeJSON(w, code.HTTPStatus(), e)
}

func decodeJSON(r *http.Request, v any) error {
	if err := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes)).Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

func (s *Server) handleRegisterDataset(w http.ResponseWriter, r *http.Request) {
	var req api.RegisterDatasetRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, api.CodeBadRequest, err)
		return
	}
	if req.Name == "" {
		writeError(w, api.CodeBadRequest, fmt.Errorf("dataset needs a name"))
		return
	}
	if (req.Path == "") == (req.CSV == "") {
		writeError(w, api.CodeBadRequest, fmt.Errorf("dataset needs exactly one of path and csv"))
		return
	}
	// Answer retries of an already-registered name before loading the data.
	if s.registered(req.Name) {
		writeError(w, api.CodeDatasetExists, fmt.Errorf("server: %v: %q", ErrDuplicateDataset, req.Name))
		return
	}
	if req.Shards < 0 {
		writeError(w, api.CodeBadRequest, fmt.Errorf("shards must be non-negative, got %d", req.Shards))
		return
	}
	// Per-request tuning falls back to the server's defaults.
	opts := s.regDefaults(core.Options{EMIterations: req.EMIterations, TopK: req.TopK, Workers: req.Workers})
	if req.Shards != 0 {
		opts.Shards = req.Shards
	}
	if req.ShardKey != "" {
		opts.ShardKey = req.ShardKey
	}
	if req.Retention != "" {
		window, err := time.ParseDuration(req.Retention)
		if err != nil || window <= 0 {
			writeError(w, api.CodeBadRequest, fmt.Errorf("retention must be a positive Go duration (e.g. %q), got %q", "17520h", req.Retention))
			return
		}
		opts.Retention = window
	}
	if req.RetentionDim != "" {
		opts.RetentionDim = req.RetentionDim
	}
	var set *shard.Set
	if strings.HasSuffix(req.Path, ".rst") {
		// Snapshot files carry their own schema.
		if len(req.Measures) > 0 || req.Hierarchies != "" {
			writeError(w, api.CodeBadRequest,
				fmt.Errorf("a .rst snapshot carries its own measures and hierarchies; leave both fields empty"))
			return
		}
		var err error
		if set, err = shard.Open(req.Path, s.cfg.MappedIO); err != nil {
			writeError(w, api.CodeBadRequest, err)
			return
		}
		// A partitioned file carries its own shard topology too.
		if set.N() > 1 && (req.Shards != 0 || req.ShardKey != "") {
			set.Close()
			writeError(w, api.CodeBadRequest,
				fmt.Errorf("a partitioned .rst snapshot carries its own shard topology; leave shards and shard_key empty"))
			return
		}
	} else {
		if len(req.Measures) == 0 {
			writeError(w, api.CodeBadRequest, fmt.Errorf("dataset needs at least one measure column"))
			return
		}
		hierarchies, err := data.ParseHierarchySpec(req.Hierarchies)
		if err != nil {
			writeError(w, api.CodeBadRequest, err)
			return
		}
		var ds *data.Dataset
		if req.Path != "" {
			ds, err = data.ReadCSVFile(req.Path, req.Name, req.Measures, hierarchies)
		} else {
			ds, err = data.ReadCSV(strings.NewReader(req.CSV), req.Name, req.Measures, hierarchies)
		}
		if err != nil {
			writeError(w, api.CodeBadRequest, err)
			return
		}
		set = shard.Single(store.FromDataset(ds))
	}
	v, err := s.register(req.Name, set, opts)
	if err != nil {
		set.Close()
		code := api.CodeBadRequest
		if errors.Is(err, ErrDuplicateDataset) {
			code = api.CodeDatasetExists
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusCreated, datasetInfo(req.Name, v))
}

// datasetInfo describes one serving state for dataset responses.
func datasetInfo(name string, v *ingest.Version) api.DatasetInfo {
	schema := v.Set.Schema()
	names := make([]string, len(schema.Hierarchies))
	for i, h := range schema.Hierarchies {
		names[i] = h.Name
	}
	measures := make([]string, len(schema.Measures))
	for i, m := range schema.Measures {
		measures[i] = m.Name
	}
	return api.DatasetInfo{
		Name:        name,
		Rows:        v.Set.TotalRows(),
		Version:     v.Set.Version(),
		Hierarchies: names,
		Measures:    measures,
		// 0 on the single-node engine a one-shard set builds.
		Shards: v.Eng.NumShards(),
	}
}

// handleListDatasets reports every registered dataset's currently-served
// version, sorted by name for deterministic output.
func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	entries := make([]*engineEntry, 0, len(s.engines))
	for _, ent := range s.engines {
		entries = append(entries, ent)
	}
	s.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	resp := api.ListDatasetsResponse{Datasets: make([]api.DatasetInfo, len(entries))}
	for i, ent := range entries {
		resp.Datasets[i] = datasetInfo(ent.name, ent.ds.Version())
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	ent, ok := s.engines[name]
	s.mu.Unlock()
	if !ok {
		writeError(w, api.CodeDatasetNotFound, fmt.Errorf("unknown dataset %q", name))
		return
	}
	var req api.AppendRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, api.CodeBadRequest, err)
		return
	}
	if req.CSV == "" {
		writeError(w, api.CodeBadRequest, fmt.Errorf("append needs csv content"))
		return
	}
	rows, err := parseAppendCSV(ent.ds.Version().Set.Schema(), req.CSV)
	if err != nil {
		writeError(w, api.CodeBadRequest, err)
		return
	}
	resp := api.AppendResponse{Appended: len(rows)}
	if ent.ing != nil {
		// WAL-backed: the rows are durable once logged; the flusher folds
		// them into the serving state asynchronously. The response reports
		// the version still serving plus the client's replay position.
		seq, pending, err := ent.ing.enqueue(rows)
		if err != nil {
			writeError(w, api.CodeUnprocessable, err)
			return
		}
		resp.WALSeq, resp.PendingRows = seq, pending
		resp.DatasetInfo = datasetInfo(name, ent.ds.Version())
	} else {
		next, err := s.appendSync(ent, rows)
		if err != nil {
			writeError(w, api.CodeUnprocessable, err)
			return
		}
		resp.DatasetInfo = datasetInfo(name, next)
	}
	writeJSON(w, http.StatusOK, resp)
}

// parseAppendCSV decodes appended rows against the snapshot's schema. The
// header must name every column exactly once; column order is free.
func parseAppendCSV(snap *store.Snapshot, content string) ([]store.Row, error) {
	cr := csv.NewReader(strings.NewReader(content))
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("reading append CSV header: %w", err)
	}
	col := make(map[string]int, len(header))
	for i, c := range header {
		if _, dup := col[c]; dup {
			return nil, fmt.Errorf("duplicate column %q in append CSV header", c)
		}
		col[c] = i
	}
	dimIdx := make([]int, len(snap.Dims))
	for i, c := range snap.Dims {
		j, ok := col[c.Name]
		if !ok {
			return nil, fmt.Errorf("append CSV is missing dimension column %q", c.Name)
		}
		dimIdx[i] = j
	}
	msIdx := make([]int, len(snap.Measures))
	for i, m := range snap.Measures {
		j, ok := col[m.Name]
		if !ok {
			return nil, fmt.Errorf("append CSV is missing measure column %q", m.Name)
		}
		msIdx[i] = j
	}
	if len(col) != len(snap.Dims)+len(snap.Measures) {
		return nil, fmt.Errorf("append CSV has %d columns, dataset has %d", len(col), len(snap.Dims)+len(snap.Measures))
	}
	var rows []store.Row
	// row is 1-based over data rows; the header is CSV line 1, so data row r
	// sits on line r+1 — errors cite both so they are findable in either
	// numbering.
	for row := 1; ; row++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("reading append CSV row %d (line %d): %w", row, row+1, err)
		}
		r := store.Row{Dims: make([]string, len(dimIdx)), Measures: make([]float64, len(msIdx))}
		for i, j := range dimIdx {
			r.Dims[i] = rec[j]
		}
		for i, j := range msIdx {
			v, err := strconv.ParseFloat(rec[j], 64)
			if err != nil {
				return nil, fmt.Errorf("append CSV row %d (line %d) column %q: %w",
					row, row+1, snap.Measures[i].Name, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("append CSV row %d (line %d) column %q: non-finite measure value %q",
					row, row+1, snap.Measures[i].Name, rec[j])
			}
			r.Measures[i] = v
		}
		rows = append(rows, r)
	}
	return rows, nil
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req api.CreateSessionRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, api.CodeBadRequest, err)
		return
	}
	s.mu.Lock()
	ent, ok := s.engines[req.Dataset]
	s.mu.Unlock()
	if !ok {
		writeError(w, api.CodeDatasetNotFound, fmt.Errorf("unknown dataset %q", req.Dataset))
		return
	}
	v := ent.ds.Version()
	cs, err := v.Eng.NewSession(req.GroupBy)
	if err != nil {
		writeError(w, api.CodeBadRequest, err)
		return
	}
	ttl := s.cfg.SessionTTL
	if req.TTLSeconds > 0 {
		// Clamp before multiplying: a huge ttl_seconds would overflow
		// time.Duration into the past and create an already-expired session.
		const maxTTLSeconds = int(maxSessionTTL / time.Second)
		secs := req.TTLSeconds
		if secs > maxTTLSeconds {
			secs = maxTTLSeconds
		}
		ttl = time.Duration(secs) * time.Second
	}
	sess := &session{id: newSessionID(), engine: ent, sess: cs, version: v.Set.Version(), ttl: ttl}
	s.mu.Lock()
	now := s.now()
	s.sweepExpiredLocked(now)
	sess.deadline = now.Add(ttl)
	s.sessions[sess.id] = sess
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, api.Session{
		ID:        sess.id,
		Dataset:   ent.name,
		GroupBy:   nonNil(cs.GroupBy()),
		State:     cs.StateKey(),
		ExpiresAt: sess.deadline.UTC().Format(time.RFC3339),
	})
}

// handleReleaseSession explicitly releases a session, freeing its TTL-table
// entry and cached recommendations without waiting for expiry. Releasing an
// unknown (or already released) id is 404: release is not idempotent, so a
// client retrying over a flaky link learns the first attempt landed.
func (s *Server) handleReleaseSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		// An expired-but-unswept session still releases cleanly: the client
		// asked for it to be gone, and gone it is either way.
		s.dropSessionLocked(sess)
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, api.CodeSessionNotFound, fmt.Errorf("unknown session %q", id))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	// The middleware's trace threads through the whole pipeline: the serving
	// stages recorded here and the engine stages (groupby, scatter, fit)
	// recorded through the core.SpanRecorder seam nest into one exclusive
	// per-stage decomposition. A nil trace (direct handler calls in tests)
	// records nothing.
	tr := obs.TraceFrom(r.Context())
	endBind := tr.StartSpan("bind")
	view, code, err := s.lookupSession(r.PathValue("id"))
	endBind()
	if err != nil {
		writeError(w, code, err)
		return
	}
	endDecode := tr.StartSpan("decode")
	var req api.RecommendRequest
	if err := decodeJSON(r, &req); err != nil {
		endDecode()
		writeError(w, api.CodeBadRequest, err)
		return
	}
	c, err := core.ParseComplaint(req.Complaint)
	endDecode()
	if err != nil {
		writeError(w, api.CodeBadRequest, err)
		return
	}
	state := view.cs.StateKey()
	cacheKey := ""
	if ck, cacheable := c.Key(); cacheable && s.cache != nil {
		// The dataset version is part of the key: a request still evaluating
		// the swapped-out version can only insert under the old version's
		// key, which no rebound session will ever look up again.
		endCache := tr.StartSpan("cache")
		cacheKey = fmt.Sprintf("%s\x00v%d\x00%s\x00%s", view.id, view.version, state, ck)
		raw, ok := s.cache.Get(cacheKey)
		endCache()
		if ok {
			s.countCache(view.engine, true)
			s.respondRecommend(w, r, tr, state, "hit", raw)
			return
		}
		s.countCache(view.engine, false)
	}

	endAdmit := tr.StartSpan("admit")
	admitted := view.engine.acquire(r.Context(), s.cfg.QueueWait)
	endAdmit()
	if !admitted {
		writeError(w, api.CodeOverloaded,
			fmt.Errorf("dataset %q is at its concurrent recommendation limit", view.engine.name))
		return
	}
	defer view.engine.release()

	endEval := tr.StartSpan("evaluate")
	rec, err := view.cs.RecommendContext(r.Context(), c)
	endEval()
	if err != nil {
		writeError(w, api.CodeUnprocessable, err)
		return
	}
	endEncode := tr.StartSpan("encode")
	raw, err := json.Marshal(rec)
	endEncode()
	var nf *core.NonFiniteError
	if errors.As(err, &nf) {
		writeError(w, api.CodeUnprocessable, nf) // the data, not the server, has no answer JSON can hold
		return
	}
	if err != nil {
		writeError(w, api.CodeInternal, err)
		return
	}
	verdict := "bypass"
	if cacheKey != "" {
		verdict = "miss"
		// A Drill racing this call may have advanced the session after the
		// state key was read: the engine then evaluated at the deeper state
		// (its contract allows either), and caching that result under the
		// pre-drill key would resurrect an entry the drill just invalidated.
		// Drilling is monotonic, so an unchanged state key proves no drill
		// landed in between and the entry is safe to insert.
		if view.cs.StateKey() == state {
			s.cache.Add(cacheKey, raw)
		}
	}
	s.respondRecommend(w, r, tr, state, verdict, raw)
}

// countCache records one recommendation-cache outcome at every granularity:
// server-wide, per dataset, and per endpoint.
func (s *Server) countCache(ent *engineEntry, hit bool) {
	m := s.obs.Endpoint(obs.EndpointRecommend)
	if hit {
		s.cacheHits.Add(1)
		ent.cacheHits.Add(1)
		m.CacheHits.Add(1)
	} else {
		s.cacheMiss.Add(1)
		ent.cacheMiss.Add(1)
		m.CacheMisses.Add(1)
	}
}

// respondRecommend writes the recommendation. When the client asked for
// tracing (any non-empty X-Reptile-Trace request header), the response
// carries the request's per-stage timing breakdown both as an
// X-Reptile-Trace header ("bind;dur=0.4, ..., total;dur=12.3", milliseconds)
// and as the stages field of the body.
func (s *Server) respondRecommend(w http.ResponseWriter, r *http.Request, tr *obs.Trace, state, verdict string, raw json.RawMessage) {
	w.Header().Set("X-Reptile-Cache", verdict)
	resp := api.RecommendResponse{State: state, Cache: verdict, Recommendation: raw}
	if tr != nil && r.Header.Get("X-Reptile-Trace") != "" {
		stages := tr.Stages()
		w.Header().Set("X-Reptile-Trace", obs.Header(stages, tr.Elapsed()))
		resp.Stages = make([]api.StageTiming, len(stages))
		for i, st := range stages {
			resp.Stages[i] = api.StageTiming{Name: st.Name, DurationMS: float64(st.Dur) / float64(time.Millisecond)}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDrill(w http.ResponseWriter, r *http.Request) {
	view, code, err := s.lookupSession(r.PathValue("id"))
	if err != nil {
		writeError(w, code, err)
		return
	}
	var req api.DrillRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, api.CodeBadRequest, err)
		return
	}
	// Drill the session's *current* core.Session, holding the registry lock
	// so a hot-swap cannot rebind the session mid-drill and silently lose
	// the step. Drill only flips depth counters, so the critical section is
	// short.
	s.mu.Lock()
	cs := view.cs
	if sess, ok := s.sessions[view.id]; ok {
		cs = sess.sess
	}
	err = cs.Drill(req.Hierarchy)
	s.mu.Unlock()
	if err != nil {
		writeError(w, api.CodeBadRequest, err)
		return
	}
	// Drilling changes the session's state key, so cached entries for the
	// old state can never be requested again — drop them eagerly.
	if s.cache != nil {
		s.cache.RemovePrefix(view.id + "\x00")
	}
	writeJSON(w, http.StatusOK, api.DrillResponse{
		GroupBy: nonNil(cs.GroupBy()),
		State:   cs.StateKey(),
	})
}

// handleStats reports per-dataset serving counters: the live snapshot
// version, row count, bound sessions, shard topology (shard count plus
// per-shard row counts), open mode ("eager" or "mapped") with the resident
// column-payload bytes that mode costs, and cube status (presence plus
// materialized level/cell counts; on a sharded dataset, present only when
// every shard has one, with cells summed across shards), alongside the
// recommendation-cache hit/miss statistics that /healthz already exposes.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.sweepExpiredLocked(s.now())
	perDataset := make(map[string]int, len(s.engines))
	for _, sess := range s.sessions {
		perDataset[sess.engine.name]++
	}
	resp := api.StatsResponse{Status: "ok", Datasets: make(map[string]api.DatasetStats, len(s.engines)), Sessions: len(s.sessions)}
	for name, ent := range s.engines {
		v := ent.ds.Version()
		d := api.DatasetStats{
			Version:             v.Set.Version(),
			Rows:                v.Set.TotalRows(),
			Sessions:            perDataset[name],
			Shards:              v.Eng.NumShards(),
			OpenMode:            "eager",
			ResidentColumnBytes: v.Set.ResidentColumnBytes(),
			Retention:           retentionStatus(ent.ds.Options(), v),
		}
		if v.Set.Mapped() {
			d.OpenMode = "mapped"
		}
		if levels, cells := v.Set.CubeSize(); levels > 0 {
			d.Cube = api.CubeStatus{Present: true, Levels: levels, Cells: cells}
		}
		if d.Shards > 0 {
			d.ShardRows = v.Set.Rows()
		}
		if ent.ing != nil {
			d.WAL = ent.ing.status()
		}
		if hits, misses := ent.cacheHits.Load(), ent.cacheMiss.Load(); hits+misses > 0 {
			d.Cache = &api.CacheStats{Hits: hits, Misses: misses}
		}
		resp.Datasets[name] = d
	}
	s.mu.Unlock()
	resp.Cache = s.cacheStats()
	resp.Server = s.serverInfo()
	resp.Endpoints = s.endpointStats()
	resp.Stages = s.stageStats()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.sweepExpiredLocked(s.now())
	nd, ns := len(s.engines), len(s.sessions)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, api.HealthResponse{
		Status: "ok", Datasets: nd, Sessions: ns, Cache: s.cacheStats(),
	})
}

// cacheStats snapshots the recommendation LRU's counters.
func (s *Server) cacheStats() api.CacheStats {
	cs := api.CacheStats{Hits: s.cacheHits.Load(), Misses: s.cacheMiss.Load()}
	if s.cache != nil {
		cs.Size = s.cache.Len()
	}
	return cs
}

// nonNil maps a nil slice to an empty one so JSON renders [] instead of null.
func nonNil(ss []string) []string {
	if ss == nil {
		return []string{}
	}
	return ss
}
