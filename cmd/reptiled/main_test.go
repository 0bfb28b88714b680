package main

import (
	"bytes"
	"context"
	"log"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/reptile/api"
	"repro/reptile/client"
)

// listenLog is a log sink that reports the address of run's "listening on"
// line, the only place the port the kernel picked for 127.0.0.1:0 shows.
type listenLog struct{ addr chan string }

func (l listenLog) Write(p []byte) (int, error) {
	const marker = "listening on "
	if i := bytes.Index(p, []byte(marker)); i >= 0 {
		l.addr <- string(bytes.TrimSpace(p[i+len(marker):]))
	}
	return len(p), nil
}

// daemon is one run of the reptiled binary's body inside the test process.
type daemon struct {
	cl   *client.Client
	stop context.CancelFunc
	done chan error
}

// start runs the daemon on a kernel-chosen loopback port with the given
// extra flags and returns once it accepts connections.
func start(t *testing.T, flags ...string) *daemon {
	t.Helper()
	sink := listenLog{addr: make(chan string, 1)}
	log.SetOutput(sink)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{stop: cancel, done: make(chan error, 1)}
	go func() { d.done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, flags...)) }()
	t.Cleanup(cancel)
	select {
	case addr := <-sink.addr:
		cl, err := client.New("http://" + addr)
		if err != nil {
			t.Fatal(err)
		}
		d.cl = cl
	case err := <-d.done:
		t.Fatalf("run returned before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("run never logged its listen address")
	}
	return d
}

// drain cancels the daemon's context and asserts run shut everything down
// cleanly: requests drained, server closed, nil returned.
func (d *daemon) drain(t *testing.T) {
	t.Helper()
	d.stop()
	select {
	case err := <-d.done:
		if err != nil {
			t.Fatalf("run after cancel: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after its context was cancelled")
	}
}

// fistRegistration writes the generated fist survey (what `gendata -dataset
// fist` emits) as CSV and returns the request that registers it.
func fistRegistration(t *testing.T) (api.RegisterDatasetRequest, int) {
	t.Helper()
	ds := datasets.GenerateFIST(1).DS
	path := filepath.Join(t.TempDir(), "fist.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return api.RegisterDatasetRequest{
		Name: "fist", Path: path, Measures: []string{"severity"},
		Hierarchies: "geo:region,district,village;time:year", EMIterations: 4,
	}, ds.NumRows()
}

const fistComplaint = "agg=mean measure=severity dir=high region=Tigray"

// TestDaemonServesAndDrains boots the daemon the way main does, drives one
// registration, session and recommendation through the native client, and
// shuts it down by cancelling its context.
func TestDaemonServesAndDrains(t *testing.T) {
	ctx := context.Background()
	d := start(t)
	req, rows := fistRegistration(t)
	info, err := d.cl.RegisterDataset(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != rows {
		t.Fatalf("registered %d rows, want %d", info.Rows, rows)
	}
	sess, err := d.cl.CreateSession(ctx, api.CreateSessionRequest{Dataset: "fist", GroupBy: []string{"region"}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := sess.Recommend(ctx, fistComplaint)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := resp.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if best := rec.BestResult(); best == nil || len(best.Ranked) == 0 {
		t.Fatalf("recommendation has no ranked groups: %s", resp.Recommendation)
	}
	d.drain(t)
	if _, err := d.cl.Health(ctx); err == nil {
		t.Fatal("daemon still answers after run returned")
	}
}

// TestDaemonRecoversLoggedRows: with -wal, a row acknowledged before a
// shutdown is served by the next process that registers the dataset.
func TestDaemonRecoversLoggedRows(t *testing.T) {
	ctx := context.Background()
	walDir := t.TempDir()
	req, rows := fistRegistration(t)

	d := start(t, "-wal", "-wal-dir", walDir)
	if _, err := d.cl.RegisterDataset(ctx, req); err != nil {
		t.Fatal(err)
	}
	ack, err := d.cl.Append(ctx, "fist", "region,district,village,year,severity\nTigray,Tigray_D0,Tigray_D0_new,y2015,9.5\n")
	if err != nil {
		t.Fatal(err)
	}
	if ack.Appended != 1 || ack.WALSeq == 0 {
		t.Fatalf("append ack = %+v, want one row with a log position", ack)
	}
	d.drain(t)

	d = start(t, "-wal", "-wal-dir", walDir)
	info, err := d.cl.RegisterDataset(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != rows+1 {
		t.Fatalf("restarted daemon serves %d rows, want %d", info.Rows, rows+1)
	}
	sess, err := d.cl.CreateSession(ctx, api.CreateSessionRequest{Dataset: "fist", GroupBy: []string{"region", "district"}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := sess.Recommend(ctx, fistComplaint+" district=Tigray_D0")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(resp.Recommendation, []byte("Tigray_D0_new")) {
		t.Errorf("the recovered row's village is not among the ranked groups: %s", resp.Recommendation)
	}
	d.drain(t)
}
