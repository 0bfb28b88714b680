package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptrace"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/reptile/client"
)

// span is one timed interval at a layer boundary. Spans stay in memory for
// the whole run and are written out once, at exit. Parent is the ID of the
// span that caused this one (0 = a root); spans of one request share Req.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Req     string  `json:"req,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer collects spans from every source of a traced run: httptrace hooks
// on the benchmark's own client, the server's X-Reptile-Trace stage
// breakdown, the benchmark's core.SpanRecorder, and the layer-replay timers.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(name, req string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Req: req,
		StartUS: float64(start.Sub(t.epoch)) / float64(time.Microsecond),
		EndUS:   float64(end.Sub(t.epoch)) / float64(time.Microsecond),
	})
	return id
}

// open starts a span whose ID children need before it ends; the returned
// function ends it.
func (t *tracer) open(name, req string, parent int) (id int, end func()) {
	start := time.Now()
	id = t.add(name, req, parent, start, start)
	return id, func() {
		us := float64(time.Since(t.epoch)) / float64(time.Microsecond)
		t.mu.Lock()
		t.spans[id-1].EndUS = us
		t.mu.Unlock()
	}
}

// layers lists the distinct layer prefixes ("client", "server", ...) that
// have at least one span.
func (t *tracer) layers() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := map[string]bool{}
	for _, s := range t.spans {
		if i := strings.IndexByte(s.Name, '.'); i > 0 {
			seen[s.Name[:i]] = true
		}
	}
	out := make([]string, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reqTrace carries one HTTP request's client-side timestamps and the
// response headers the client package does not surface.
type reqTrace struct {
	gotConn, wrote, firstByte time.Time
	reused                    bool
	traceHeader, requestID    string
}

type reqTraceKey struct{}

// tapTransport copies the server's trace and request-id response headers
// into the request's reqTrace, when it carries one.
type tapTransport struct{ base *http.Transport }

func (t *tapTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if rt, _ := req.Context().Value(reqTraceKey{}).(*reqTrace); rt != nil && resp != nil {
		rt.traceHeader = resp.Header.Get("X-Reptile-Trace")
		rt.requestID = resp.Header.Get("X-Reptile-Request-Id")
	}
	return resp, err
}

// tracedRecommend issues one recommend with the server's stage breakdown
// requested and httptrace hooks installed, then records the request's span
// tree and its per-phase samples:
//
//	http.recommend                      caller-observed wall time
//	├─ client.write                     call start → request written
//	├─ client.ttfb                      request written → first response byte
//	│  └─ server.<stage> ...            the handler's exclusive stages
//	└─ client.read_decode               first response byte → call return
//
// Server stages arrive as durations only; they are laid out back to back
// from the moment the request was written.
func (t *tracer) tracedRecommend(ctx context.Context, sess *client.Session, complaint string, sm *samples) error {
	rt := &reqTrace{}
	ctx = context.WithValue(ctx, reqTraceKey{}, rt)
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			rt.gotConn, rt.reused = time.Now(), info.Reused
		},
		WroteRequest:         func(httptrace.WroteRequestInfo) { rt.wrote = time.Now() },
		GotFirstResponseByte: func() { rt.firstByte = time.Now() },
	})
	start := time.Now()
	resp, err := sess.RecommendTraced(ctx, complaint)
	end := time.Now()
	if err != nil {
		return err
	}
	if rt.wrote.IsZero() || rt.firstByte.IsZero() {
		return fmt.Errorf("httptrace hooks did not fire for request %s", rt.requestID)
	}
	root := t.add("http.recommend", rt.requestID, 0, start, end)
	t.add("client.write", rt.requestID, root, start, rt.wrote)
	wait := t.add("client.ttfb", rt.requestID, root, rt.wrote, rt.firstByte)
	t.add("client.read_decode", rt.requestID, root, rt.firstByte, end)
	sm.add("client.write_ms", ms(rt.wrote.Sub(start)))
	sm.add("client.ttfb_ms", ms(rt.firstByte.Sub(rt.wrote)))
	sm.add("client.read_decode_ms", ms(end.Sub(rt.firstByte)))
	reused := 0.0
	if rt.reused {
		reused = 1
	}
	sm.add("client.reused", reused)

	at := rt.wrote
	for _, st := range resp.Stages {
		d := time.Duration(st.DurationMS * float64(time.Millisecond))
		layer := "server."
		switch st.Name {
		case "groupby", "scatter", "fit":
			// Recorded by the engine through core.SpanRecorder.
			layer = "core."
		}
		t.add(layer+st.Name, rt.requestID, wait, at, at.Add(d))
		at = at.Add(d)
		sm.add(layer+st.Name+"_ms", st.DurationMS)
	}
	if total, ok := traceTotalMS(rt.traceHeader); ok {
		sm.add("server.handler", total)
	}
	return nil
}

// traceTotalMS extracts "total;dur=<ms>" from an X-Reptile-Trace header.
func traceTotalMS(h string) (float64, bool) {
	for _, part := range strings.Split(h, ",") {
		part = strings.TrimSpace(part)
		if v, ok := strings.CutPrefix(part, "total;dur="); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}

// coreRecorder is the benchmark's core.SpanRecorder: every engine span
// becomes a child of the operation's span, and its duration a sample under
// "core.<name>_ms". The engine records from its worker pool, so StartSpan is
// safe for concurrent use (tracer and samples both lock).
type coreRecorder struct {
	t      *tracer
	sm     *samples
	req    string
	parent int
}

func (r *coreRecorder) StartSpan(name string) func() {
	start := time.Now()
	return func() {
		end := time.Now()
		r.t.add("core."+name, r.req, r.parent, start, end)
		r.sm.add("core."+name+"_ms", ms(end.Sub(start)))
	}
}
