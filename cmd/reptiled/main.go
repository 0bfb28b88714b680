// Command reptiled serves Reptile's explanation engine over HTTP. Datasets
// register once and their engines are shared across all sessions and
// requests, so queries stop paying the per-invocation dataset-load and
// engine-construction cost of the CLI.
//
// Usage:
//
//	reptiled [-addr 127.0.0.1:8372] [-session-ttl 15m] [-cache-size 256]
//	         [-max-inflight 0] [-queue-wait 100ms] [-no-cube]
//	         [-shards 0] [-shard-key dim] [-mmap]
//	         [-wal] [-wal-dir .] [-flush-rows 256] [-flush-bytes 1048576]
//	         [-flush-interval 200ms] [-checkpoint-bytes 8388608]
//	         [-retention 0] [-retention-dim dim]
//	         [-pprof-addr addr] [-log-requests] [-version]
//
// The API is unauthenticated and POST /v1/datasets can name server-local CSV
// paths, so the default bind is loopback; put a reverse proxy with
// authentication in front before exposing it beyond the host.
//
// Endpoints (all JSON; request/response types and the structured error
// envelope are defined in reptile/api, and reptile/client is the native Go
// client for the full surface):
//
//	POST   /v1/datasets                  register a CSV or .rst dataset
//	GET    /v1/datasets                  list registered datasets
//	POST   /v1/datasets/{name}/append    append rows, hot-swapping the engine
//	POST   /v1/sessions                  start a drill-down session
//	DELETE /v1/sessions/{id}             release a session explicitly
//	POST   /v1/sessions/{id}/recommend   evaluate a complaint
//	POST   /v1/sessions/{id}/drill       accept a recommendation
//	GET    /v1/stats                     per-dataset versions + cube status
//	GET    /healthz                      liveness + cache statistics
//
// Every registered dataset version materializes a hierarchy rollup cube
// (internal/cube) shared by all its sessions — group-bys over hierarchy
// prefixes are answered from precomputed cells, and appends maintain the
// cube incrementally. -no-cube disables materialization (snapshots loaded
// from .rst files that already carry a cube keep it).
//
// -shards N (N ≥ 2) partitions every registered dataset on a hierarchy-root
// dimension (-shard-key, default: the first hierarchy's root) and serves it
// through the sharded scatter-gather engine; individual registrations can
// override both via the request's shards/shard_key fields. GET /v1/stats
// reports each dataset's shard count and per-shard row counts.
//
// -mmap serves registered .rst snapshots out of memory-mapped files instead
// of one heap read of each, whose payloads an eager open views in place:
// residency stays O(dictionaries + cube) rather than O(file), so snapshots
// larger than RAM serve with flat RSS, and recommendations are byte-identical
// to an eager load. CSV registrations are unaffected; appends to a mapped
// dataset are rejected (re-register without -mmap to ingest). GET /v1/stats
// reports each dataset's open mode and resident column bytes.
//
// Registering a path ending in .rst loads a dictionary-encoded binary
// snapshot (see internal/store and "reptile convert") instead of reparsing
// CSV; the snapshot carries its own measures and hierarchies, and a
// partitioned snapshot ("reptile convert -shards") its shard topology too. Appends build
// the successor snapshot and engine in the background and swap them in
// atomically: the dataset's cached recommendations are invalidated, sessions
// pick up the new version on their next request, and recommendations already
// in flight finish on the old version.
//
// -wal turns appends into durable micro-batched ingestion: every append
// commits its rows to <wal-dir>/<dataset>.wal (fsynced before the request is
// acknowledged, with the log position returned as wal_seq) and a per-dataset
// flusher coalesces pending rows — up to -flush-rows rows or -flush-bytes
// bytes, at most -flush-interval after arrival — into a single snapshot
// rebuild and hot swap. Once a log outgrows -checkpoint-bytes, the serving
// state checkpoints to <dataset>.ckpt.<seq>.rst and the log truncates.
// Re-registering a dataset after a restart recovers the checkpoint and
// replays the log, so every acknowledged row survives a crash.
//
// -retention WINDOW -retention-dim DIM bound every dataset's history: rows
// whose event time on DIM falls more than WINDOW behind the dataset's newest
// event are dropped at the next flush (windows use Go duration notation, so
// two years is 17520h). Individual registrations can override both via the
// request's retention/retention_dim fields. GET /v1/stats reports each
// dataset's WAL depth, flush statistics and retention horizon.
//
// Observability: GET /v1/metrics serves every endpoint's request, error,
// in-flight and latency-histogram counters plus the recommend pipeline's
// per-stage timing totals in the Prometheus text format, and GET /v1/stats
// carries the same data as JSON alongside server identity (version, Go
// version, start time, uptime). -log-requests logs one structured line per
// request (request id, endpoint, status, latency) to stderr. -pprof-addr
// serves net/http/pprof on a second listener, kept off the API address so
// profiling never rides an exposed port. -version prints the build version
// and exits.
//
// The server shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests and then flushing every dataset's pending micro-batch (with a
// final log fsync) before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

// version is the build identifier reported by -version and /v1/stats;
// override at build time with -ldflags "-X main.version=v1.2.3".
var version = "dev"

func main() {
	if err := run(context.Background(), os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run is the daemon: it parses args, serves until ctx is cancelled or the
// process is signalled (SIGINT/SIGTERM), then drains and closes the server.
// It returns once every listener and dataset is shut down — nil after a
// clean drain.
func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("reptiled", flag.ExitOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:8372", "listen address")
		sessionTTL  = fs.Duration("session-ttl", 15*time.Minute, "idle session lifetime (renewed by every request)")
		cacheSize   = fs.Int("cache-size", 256, "recommendation LRU capacity in entries (negative disables)")
		maxInflight = fs.Int("max-inflight", 0, "concurrent recommendations per dataset (0 = the engine's worker count)")
		queueWait   = fs.Duration("queue-wait", 100*time.Millisecond, "how long an over-limit recommendation waits before 429")
		drain       = fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown deadline")
		noCube      = fs.Bool("no-cube", false, "skip materializing rollup cubes for registered datasets")
		shards      = fs.Int("shards", 0, "partition registered datasets into N shards (0 or 1 = unsharded)")
		shardKey    = fs.String("shard-key", "", "partition dimension, a hierarchy root (default: the first hierarchy's root)")
		mmapIO      = fs.Bool("mmap", false, "serve registered .rst snapshots memory-mapped instead of read onto the heap (eager: one read, payloads viewed in place)")
		useWAL      = fs.Bool("wal", false, "write-ahead-log appends and micro-batch them into the serving state")
		walDir      = fs.String("wal-dir", ".", "directory for write-ahead logs and checkpoints")
		flushRows   = fs.Int("flush-rows", 256, "micro-batch flush threshold in rows")
		flushBytes  = fs.Int("flush-bytes", 1<<20, "micro-batch flush threshold in bytes")
		flushEvery  = fs.Duration("flush-interval", 200*time.Millisecond, "maximum time a logged row waits before flushing")
		ckptBytes   = fs.Int64("checkpoint-bytes", 8<<20, "checkpoint and truncate a WAL once it outgrows this size (negative disables)")
		retention   = fs.Duration("retention", 0, "drop rows this far behind the newest event time (0 keeps everything; e.g. 17520h = 2 years)")
		retDim      = fs.String("retention-dim", "", "time dimension retention is measured on (required with -retention)")
		pprofAddr   = fs.String("pprof-addr", "", "serve net/http/pprof on this extra address (empty disables)")
		logRequests = fs.Bool("log-requests", false, "log one structured line per request to stderr")
		showVersion = fs.Bool("version", false, "print the build version and exit")
	)
	fs.Parse(args) // ExitOnError: a bad flag ends the process with usage, as flag.Parse does

	if *showVersion {
		fmt.Printf("reptiled %s\n", version)
		return nil
	}

	var reqLog *slog.Logger
	if *logRequests {
		reqLog = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Both listeners bind before anything is served, so a taken port is an
	// error returned here. Asking for a profiler and silently not getting
	// one wastes an incident.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *pprofAddr != "" {
		// pprof gets its own mux on its own listener: the default ServeMux
		// would expose profiling on the API port, and the API mux never
		// exposes profiling.
		pl, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("pprof listener: %w", err)
		}
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ps := &http.Server{Handler: pm}
		go ps.Serve(pl) // ends with ErrServerClosed at the Close below
		defer ps.Close()
		log.Printf("reptiled pprof on %s", pl.Addr())
	}

	srv := server.New(server.Config{
		SessionTTL:      *sessionTTL,
		CacheSize:       *cacheSize,
		MaxInflight:     *maxInflight,
		QueueWait:       *queueWait,
		DisableCube:     *noCube,
		Shards:          *shards,
		ShardKey:        *shardKey,
		MappedIO:        *mmapIO,
		WAL:             *useWAL,
		WALDir:          *walDir,
		FlushRows:       *flushRows,
		FlushBytes:      *flushBytes,
		FlushInterval:   *flushEvery,
		CheckpointBytes: *ckptBytes,
		Retention:       *retention,
		RetentionDim:    *retDim,
		Version:         version,
		RequestLog:      reqLog,
	})
	hs := &http.Server{Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	log.Printf("reptiled %s listening on %s", version, ln.Addr())

	select {
	case err := <-errc:
		return errors.Join(err, srv.Close())
	case <-ctx.Done():
	}
	stop() // a second signal kills the process instead of waiting out the drain
	log.Printf("reptiled shutting down (draining up to %s)", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err = hs.Shutdown(sctx)
	if cerr := srv.Close(); cerr != nil {
		err = errors.Join(err, fmt.Errorf("ingestion shutdown: %w", cerr))
	}
	if serr := <-errc; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}
