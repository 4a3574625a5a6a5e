// Command comparenbd is the long-lived notebook-generation daemon: it
// serves the internal/server HTTP API, loading relations once and
// running concurrent notebook-generation jobs against one shared cube
// cache.
//
//	comparenbd -addr 127.0.0.1:8080 -load covid=covid.csv
//
// Shutdown is two-stage: the first SIGINT/SIGTERM drains (no new
// admissions, queued jobs fail with 503, running jobs finish), a second
// signal hard-cancels running jobs. See docs/SERVER.md for the API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"comparenb/internal/server"
)

// buildLogger maps -log-format onto the slog handler the server writes
// its one info-level record per started job through; "off" discards it.
func buildLogger(format string) (*slog.Logger, error) {
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "off":
		return slog.New(slog.NewTextHandler(io.Discard, nil)), nil
	default:
		return nil, fmt.Errorf("-log-format %q: want json, text, or off", format)
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "comparenbd:", err)
		os.Exit(1)
	}
}

func run() error {
	var preloads []string
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		addrFile     = flag.String("addr-file", "", "write the actual listen address to this file once bound (for scripts using -addr :0)")
		maxConc      = flag.Int("max-concurrent", 2, "job worker count: notebook generations running at once")
		queueDepth   = flag.Int("queue-depth", 64, "global admission queue bound; beyond it requests are shed with 429")
		cacheBudget  = flag.Int64("cache-budget", 256<<20, "shared cube-cache soft budget in bytes")
		maxUpload    = flag.Int64("max-upload", 32<<20, "CSV upload size bound in bytes")
		maxRelations = flag.Int("max-relations", 64, "session registry bound")
		maxRows      = flag.Int("max-rows", 1<<20, "row bound per loaded relation")
		drainTimeout = flag.Duration("drain-timeout", 0, "how long a drain waits for running jobs before hard-cancelling them (0 = indefinitely)")
		stateDir     = flag.String("state-dir", "", "root of the durable state (job journal + artifact store); empty = in-memory, nothing survives a restart")
		maxAttempts  = flag.Int("max-attempts", 3, "execution attempts per job before a crash-interrupted job is quarantined (with -state-dir)")
		retryBase    = flag.Duration("retry-base", 250*time.Millisecond, "first re-enqueue backoff for crash-interrupted jobs; doubles per attempt (with -state-dir)")
		logFormat    = flag.String("log-format", "json", "structured log format on stderr: json, text, or off")
	)
	flag.Func("load", "preload a relation at startup, as name=path (repeatable)", func(v string) error {
		preloads = append(preloads, v)
		return nil
	})
	flag.Parse()

	logger, err := buildLogger(*logFormat)
	if err != nil {
		return err
	}

	srv, err := server.New(server.Options{
		MaxConcurrent:  *maxConc,
		QueueDepth:     *queueDepth,
		CacheBudget:    *cacheBudget,
		MaxUploadBytes: *maxUpload,
		MaxRelations:   *maxRelations,
		MaxRows:        *maxRows,
		DrainTimeout:   *drainTimeout,
		StateDir:       *stateDir,
		MaxAttempts:    *maxAttempts,
		RetryBase:      *retryBase,
		Logger:         logger,
	})
	if err != nil {
		return err
	}
	for _, p := range preloads {
		name, path, ok := strings.Cut(p, "=")
		if !ok {
			return fmt.Errorf("-load %q: want name=path", p)
		}
		if err := srv.LoadRelationFile(name, path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "comparenbd: preloaded relation %q from %s\n", name, path)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "comparenbd: listening on %s\n", ln.Addr())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			return err
		}
	}

	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run(runCtx) }()

	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-serveErr:
		cancelRun()
		<-runDone
		return fmt.Errorf("serve: %w", err)
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "comparenbd: %v: draining (queued jobs fail, running jobs finish; signal again to hard-stop)\n", sig)
	}

	// Drain: stop admitting jobs, then stop accepting connections once
	// in-flight requests (including SSE streams of finishing jobs) end.
	cancelRun()
	shutErr := make(chan error, 1)
	go func() { shutErr <- hs.Shutdown(context.Background()) }()

	for drained := false; !drained; {
		select {
		case <-sigCh:
			fmt.Fprintln(os.Stderr, "comparenbd: second signal: hard-cancelling running jobs")
			srv.HardStop()
			_ = hs.Close() // tears down SSE streams; Shutdown result below is the one reported
		case err := <-runDone:
			if err != nil {
				return err
			}
			drained = true
		}
	}
	_ = hs.Close() // unblock Shutdown if SSE clients linger past the drain
	<-shutErr
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "comparenbd: drained, bye")
	return nil
}
