// Command ksetd is the long-running agreement service: it serves the
// batched session-submission API of internal/service over HTTP,
// executing each agreement session on the distributed runtime (over an
// in-proc, TCP, or UDP transport; in-proc, the default, processes are
// handed each other's messages by value, sockets carry the family's
// wire encoding) with a bounded worker pool, and exposing /healthz and
// Prometheus-style /metrics (per-algorithm breakdowns under
// ksetd_algorithm_*).
//
// Sessions pick their algorithm family by name ("algorithm" in the
// session spec): "kset" — Algorithm 1 of the source paper, the default
// — or "approx" — approximate agreement on a path or cycle graph.
// Unknown names get a 400 listing the registered families.
//
// Usage:
//
//	ksetd [-addr 127.0.0.1:8347] [-workers 8] [-queue 256] [-maxn 128] [-retain 4096]
//	      [-session-timeout 0] [-pprof 127.0.0.1:6060]
//
// -pprof serves net/http/pprof on a separate listener (off by default;
// profiling is never exposed on the API address).
//
// The API surface (see DESIGN.md §7 and internal/service):
//
//	POST /v1/sessions          submit a batch of sessions
//	GET  /v1/sessions/{id}     poll one session
//	GET  /v1/sessions?status=  list sessions
//	GET  /healthz              liveness
//	GET  /metrics              Prometheus text format
//
// -session-timeout arms a per-session watchdog: a session still running
// at the deadline is declared crashed — its transport is torn down and
// the partial outcome observed so far stays pollable under status
// "crashed" (ksetd_sessions_crashed_total counts them).
//
// ksetd shuts down gracefully on SIGINT/SIGTERM: the HTTP server drains,
// running sessions finish (crashed in-flight sessions flush their
// partial outcomes), queued ones are failed with a shutdown error.
// Drive it with cmd/ksetload (the CI gauntlet boots ksetd and pushes 100
// concurrent sessions through this API over TCP).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kset/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ksetd: ")
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the testable entry point: it serves until args are invalid,
// the listener fails, or ctx is canceled (graceful shutdown).
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ksetd", flag.ContinueOnError)
	fs.SetOutput(stdout)
	addr := fs.String("addr", "127.0.0.1:8347", "listen address")
	workers := fs.Int("workers", 8, "concurrent session executions")
	queue := fs.Int("queue", 256, "bounded queue of accepted sessions (backpressure beyond it)")
	maxn := fs.Int("maxn", 128, "largest per-session process count accepted")
	retain := fs.Int("retain", 4096, "finished sessions kept for polling before eviction")
	sessionTimeout := fs.Duration("session-timeout", 0, "per-session watchdog deadline; a session running longer is crashed with partial results (0 disables)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060); empty disables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"workers", *workers}, {"queue", *queue}, {"maxn", *maxn}, {"retain", *retain}} {
		if f.v < 1 {
			return fmt.Errorf("-%s = %d, need >= 1", f.name, f.v)
		}
	}
	if *sessionTimeout < 0 {
		return fmt.Errorf("-session-timeout = %v, need >= 0 (0 disables)", *sessionTimeout)
	}

	svc := service.New(service.Config{
		Workers: *workers,
		Queue:   *queue,
		MaxN:    *maxn,
		Retain:  *retain,

		SessionTimeout: *sessionTimeout,
	})
	defer svc.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "ksetd listening on %s (workers=%d queue=%d maxn=%d)\n",
		ln.Addr(), *workers, *queue, *maxn)

	srv := &http.Server{Handler: svc.Handler()}
	errc := make(chan error, 1)
	if *pprofAddr != "" {
		// The profiling endpoint gets its own listener and servemux —
		// never the API's — so pprof exposure is an explicit, separately
		// addressable opt-in. net/http/pprof registers its handlers on
		// http.DefaultServeMux at import.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		fmt.Fprintf(stdout, "ksetd pprof on %s\n", pln.Addr())
		psrv := &http.Server{Handler: http.DefaultServeMux}
		defer psrv.Close()
		go func() {
			if err := psrv.Serve(pln); err != nil && err != http.ErrServerClosed {
				errc <- fmt.Errorf("pprof server: %w", err)
			}
		}()
	}
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "ksetd: graceful shutdown complete")
		return nil
	}
}
