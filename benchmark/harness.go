package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/server"
	"repro/reptile/api"
	"repro/reptile/client"
)

// harness is an in-process reptiled: internal/server behind a real loopback
// listener, driven through the native client like any remote daemon.
type harness struct {
	srv *server.Server
	hs  *http.Server
	cl  *client.Client
	tr  *http.Transport
	// served is closed when the accept loop has returned.
	served chan struct{}
}

// startServer listens on 127.0.0.1:0 and serves cfg's server. The client's
// transport is the benchmark's own, so traced runs can hook into it.
func startServer(cfg server.Config) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	srv := server.New(cfg)
	h := &harness{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{})}
	go func() {
		defer close(h.served)
		// Serve returns http.ErrServerClosed after Shutdown; any other
		// error surfaces as failed requests in the run.
		_ = h.hs.Serve(ln)
	}()
	h.tr = &http.Transport{MaxIdleConns: 4, MaxIdleConnsPerHost: 4, IdleConnTimeout: time.Minute}
	h.cl, err = client.New("http://"+ln.Addr().String(), client.WithHTTPClient(&http.Client{Transport: &tapTransport{base: h.tr}}))
	if err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// close shuts the listener, waits for in-flight handlers and the accept loop,
// then drains and closes ingestion. Only after it returns may the caller
// remove the server's WAL directory: the flusher writes there until Close.
func (h *harness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	<-h.served
	h.tr.CloseIdleConnections()
	if cerr := h.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// opLog counts attempted and failed operations of a window. An operation
// that fails (non-2xx, transport error, wrong answer) is counted and misses
// every latency metric.
type opLog struct {
	attempted, failed int
	firstErr          error
}

func (o *opLog) record(err error) bool {
	o.attempted++
	if err != nil {
		o.failed++
		if o.firstErr == nil {
			o.firstErr = err
		}
		return false
	}
	return true
}

func (o *opLog) merge(p *opLog) {
	o.attempted += p.attempted
	o.failed += p.failed
	if o.firstErr == nil {
		o.firstErr = p.firstErr
	}
}

// runUser walks plans (wrapping around) as one closed-loop analyst with no
// think time until stop closes. It stops issuing at the deadline and lets the
// request in flight finish: a drained request is a normal sample. Recommend
// latencies land in sm under "op"; with a tracer every recommend asks
// the server for its stage breakdown and records client-side phases.
func runUser(cl *client.Client, dataset string, plans []sessionPlan, stop <-chan struct{}, sm *samples, tr *tracer) *opLog {
	ops := &opLog{}
	ctx := context.Background()
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	for i := 0; !stopped(); i++ {
		plan := plans[i%len(plans)]
		sess, err := cl.CreateSession(ctx, api.CreateSessionRequest{Dataset: dataset, GroupBy: plan.GroupBy})
		if !ops.record(err) {
			continue
		}
		for _, step := range plan.Steps {
			if stopped() {
				break
			}
			t0 := time.Now()
			var err error
			if tr != nil {
				err = tr.tracedRecommend(ctx, sess, step.Complaint, sm)
			} else {
				_, err = sess.Recommend(ctx, step.Complaint)
			}
			if ops.record(err) {
				sm.add("op", ms(time.Since(t0)))
			}
			if step.Drill != "" && !stopped() {
				_, err := sess.Drill(ctx, step.Drill)
				if !ops.record(err) {
					break
				}
			}
		}
		ops.record(sess.Release(ctx))
	}
	return ops
}
