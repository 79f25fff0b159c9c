// Command visad serves the VISA experiment engine as a long-running
// daemon: clients submit serialized plan specs (rt.PlanSpec) over
// HTTP/JSON and read back reports and NDJSON event streams.
//
// Usage:
//
//	visad [-addr :8080] [-j NumCPU] [-workers 2] [-queue 16]
//	      [-quota-rate 0] [-quota-burst 1] [-budget 1e9]
//	      [-journal path] [-journal-sync always|never] [-queue-timeout 0]
//	      [-drain-timeout 5m]
//
// API (see internal/serve):
//
//	POST /v1/jobs             submit a plan spec -> {"id":"j000001"}
//	GET  /v1/jobs/{id}        status + report once done
//	GET  /v1/jobs/{id}/stream NDJSON per-job results and coalesced metrics
//	GET  /v1/healthz          liveness, queue depth, drain state
//	GET  /v1/metrics          service counter snapshot
//
// Admission is two-layered: per-client token quotas (-quota-rate jobs per
// second with -quota-burst, keyed on the X-Client-ID header or peer host;
// rate 0 disables) and a bounded queue of -queue admitted plans executed
// by -workers concurrent engine runs, each on -j engine workers. Saturated
// clients get 429 + Retry-After, never a hung connection.
//
// Reports are deterministic: the same plan spec yields byte-identical
// report text and (after plan-order replay) identical event streams at any
// -j on any daemon.
//
// On SIGTERM/SIGINT the daemon drains: new submissions get 503 while every
// already-admitted job runs to completion (bounded by -drain-timeout),
// then the process exits 0.
//
// With -journal the daemon is crash-safe: every admitted plan is appended
// to an append-only write-ahead journal before it is queued, and every
// completion (report hash + terminal status) is appended before it becomes
// observable. After a crash — SIGKILL, power loss — restarting with the
// same -journal replays the log, marks completed jobs done (reports intact,
// hashes verified), and re-runs incomplete ones; determinism makes the
// re-run byte-identical, so a crash is observationally equivalent to a
// slow response. -journal-sync picks the fsync policy: "always" (default,
// one fsync per record — survives OS/power failure) or "never" (page-cache
// only — survives process crash, not kernel crash).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"visa/internal/serve"
	"visa/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	j := flag.Int("j", runtime.NumCPU(), "engine workers per running plan")
	workers := flag.Int("workers", 2, "plans running concurrently")
	queue := flag.Int("queue", 16, "bounded backlog of admitted plans")
	quotaRate := flag.Float64("quota-rate", 0, "per-client jobs/second (0 disables quotas)")
	quotaBurst := flag.Int("quota-burst", 1, "per-client burst size")
	budget := flag.Int64("budget", serve.DefaultCycleBudget,
		"per-task-instance simulated-cycle budget (negative disables)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Minute,
		"how long shutdown waits for admitted jobs before giving up")
	journal := flag.String("journal", "",
		"write-ahead journal path; enables crash recovery (empty disables)")
	journalSync := flag.String("journal-sync", "always",
		"journal fsync policy: always|never")
	queueTimeout := flag.Duration("queue-timeout", 0,
		"admission deadline: jobs queued longer fail with 504 (0 disables)")
	flag.Parse()

	syncPolicy, err := wal.ParseSyncPolicy(*journalSync)
	if err != nil {
		fatal(err)
	}
	srv, recovery, err := serve.Open(serve.Config{
		EngineWorkers: *j,
		PoolWorkers:   *workers,
		QueueDepth:    *queue,
		QuotaRate:     *quotaRate,
		QuotaBurst:    *quotaBurst,
		CycleBudget:   *budget,
		QueueTimeout:  *queueTimeout,
		JournalPath:   *journal,
		JournalSync:   syncPolicy,
	})
	if err != nil {
		fatal(fmt.Errorf("journal recovery: %w", err))
	}
	if *journal != "" {
		fmt.Fprintf(os.Stderr, "visad: journal %s (%s)\n", *journal, recovery)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// The actual address matters with ":0" (tests, ad-hoc runs).
	fmt.Fprintf(os.Stderr, "visad: listening on %s (-j %d, %d workers, queue %d)\n",
		ln.Addr(), *j, *workers, *queue)
	httpSrv := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)

	select {
	case err := <-errCh:
		fatal(err)
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "visad: %s, draining (in-flight jobs finish, new jobs get 503)\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "visad: drain incomplete: %v\n", err)
		httpSrv.Close()
		os.Exit(1)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "visad: drained, exiting")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "visad:", err)
	os.Exit(1)
}
