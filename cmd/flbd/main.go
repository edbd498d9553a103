// Command flbd is the hardened scheduling daemon: a long-lived HTTP
// service that accepts task-graph submissions and schedules (and
// optionally executes) them through the module's deterministic core,
// with admission control, per-request deadlines, panic isolation and a
// graceful SIGTERM drain (internal/svc, DESIGN.md §15).
//
// Usage:
//
//	flbd -addr :8080                          # serve with defaults
//	flbd -addr :8080 -workers 4 -queue 64     # bounded pool + queue
//	flbd -addr :8080 -cache 512 -seed 1       # memoized, pinned base seed
//	flbd -max-tasks 100000 -max-body 1048576  # tighter input limits
//
// Endpoints:
//
//	POST /schedule  submit a graph (text or STG body)
//	GET  /metrics   service + scheduler + cache counters as JSON
//	GET  /healthz   process liveness
//	GET  /readyz    admission readiness (503 once draining)
//
// On SIGTERM or SIGINT the daemon stops admitting (readyz flips 503 so
// load balancers route away), finishes every admitted job, flushes a
// final metrics snapshot to stderr, and exits 0.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flb/internal/svc"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "flbd:", err)
		os.Exit(1)
	}
}

func run(args []string, logw io.Writer) error {
	fs := flag.NewFlagSet("flbd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		workers   = fs.Int("workers", 0, "scheduling workers (0 = GOMAXPROCS)")
		queueCap  = fs.Int("queue", 64, "admission queue capacity; beyond it submissions shed 429")
		cacheCap  = fs.Int("cache", 512, "schedule memo cache entries, ≈16 B per task each (0 disables)")
		seed      = fs.Int64("seed", 1, "base seed for per-request deterministic streams")
		procs     = fs.Int("procs", 8, "default processor count for submissions without ?procs")
		maxProcs  = fs.Int("max-procs", 4096, "largest accepted ?procs")
		maxBody   = fs.Int64("max-body", 8<<20, "largest accepted request body in bytes")
		maxTasks  = fs.Int("max-tasks", 0, "largest accepted task count (0 = parser default)")
		maxEdges  = fs.Int("max-edges", 0, "largest accepted edge count (0 = parser default)")
		timeout   = fs.Duration("timeout", 30*time.Second, "default per-request deadline")
		maxTime   = fs.Duration("max-timeout", 2*time.Minute, "largest accepted ?timeout")
		drainWait = fs.Duration("drain-timeout", time.Minute, "how long shutdown waits for in-flight jobs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	s := svc.New(svc.Config{
		Workers:        *workers,
		QueueCap:       *queueCap,
		CacheCap:       *cacheCap,
		MaxBodyBytes:   *maxBody,
		MaxTasks:       *maxTasks,
		MaxEdges:       *maxEdges,
		BaseSeed:       *seed,
		DefaultProcs:   *procs,
		MaxProcs:       *maxProcs,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTime,
	})

	hs := &http.Server{Addr: *addr, Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() {
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
		close(errCh)
	}()
	fmt.Fprintf(logw, "flbd: serving on %s\n", *addr)

	// Wait for a shutdown signal (or a listener failure).
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	select {
	case <-sigCtx.Done():
	case err := <-errCh:
		return err
	}
	stop()
	fmt.Fprintln(logw, "flbd: shutdown signal; draining")

	// Graceful drain: stop admitting and finish every admitted job, then
	// shut the HTTP server down (Shutdown waits for in-flight handlers,
	// which are exactly the requests whose jobs Drain just finished).
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}

	// Flush the final metrics snapshot so the lifetime's counters survive
	// the process.
	enc := json.NewEncoder(logw)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.MetricsSnapshot()); err != nil {
		return err
	}
	fmt.Fprintln(logw, "flbd: drained; bye")
	return nil
}
