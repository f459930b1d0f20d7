// Command memmodeld serves the analytic performance model over
// HTTP/JSON: single-tier (Eq. 1/4), tiered (Eq. 5), and NUMA
// evaluations plus sweep grids and fleet runs, with a scenario cache for
// the costlier requests, admission control, and live telemetry on /metrics. See the README's
// "Serving" section for the API and curl examples.
//
// Usage:
//
//	memmodeld [-addr :8080] [-cache 4096] [-concurrency N] [-queue 64]
//	          [-timeout 10s] [-drain-timeout 30s]
//	          [-fault-seed 1] [-fault-latency-p 0] [-fault-latency 30ms]
//	          [-fault-error-p 0] [-fault-unavailable-p 0] [-fault-drop-p 0]
//
// The -fault-* flags arm the deterministic fault-injection middleware on
// the /v1 endpoints — the chaos harness the resilient client is tested
// against. With a fixed -fault-seed the fault sequence is reproducible
// request-for-request, so chaos runs can be replayed.
//
// SIGTERM or SIGINT triggers a graceful drain: the daemon stops
// accepting connections, fails /healthz so load balancers route away,
// finishes in-flight evaluations, prints a final stats line, and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/version"
)

func main() {
	var (
		showVersion = flag.Bool("version", false, "print build identity and exit")

		addr    = flag.String("addr", ":8080", "listen address")
		cache   = flag.Int("cache", 4096, "scenario cache capacity (entries)")
		conc    = flag.Int("concurrency", runtime.GOMAXPROCS(0), "max concurrent evaluations")
		queue   = flag.Int("queue", 64, "admission queue depth beyond the concurrency limit")
		timeout = flag.Duration("timeout", 10*time.Second, "per-request evaluation deadline")
		drain   = flag.Duration("drain-timeout", 30*time.Second, "graceful drain deadline on SIGTERM")

		faultSeed     = flag.Int64("fault-seed", 1, "seed for the deterministic fault sequence")
		faultLatP     = flag.Float64("fault-latency-p", 0, "probability of added latency per /v1 request")
		faultLat      = flag.Duration("fault-latency", 30*time.Millisecond, "latency added when the latency fault fires")
		faultErrP     = flag.Float64("fault-error-p", 0, "probability of an injected 500 per /v1 request")
		faultUnavailP = flag.Float64("fault-unavailable-p", 0, "probability of an injected 503 per /v1 request")
		faultDropP    = flag.Float64("fault-drop-p", 0, "probability of a dropped connection per /v1 request")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String())
		return
	}

	faults := serve.FaultConfig{
		Seed:         *faultSeed,
		LatencyP:     *faultLatP,
		Latency:      *faultLat,
		ErrorP:       *faultErrP,
		UnavailableP: *faultUnavailP,
		DropP:        *faultDropP,
	}
	srv := serve.New(
		serve.WithCacheSize(*cache),
		serve.WithAdmission(*conc, *queue),
		serve.WithRequestTimeout(*timeout),
		serve.WithFaults(faults),
	)
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "memmodeld: listening on %s (cache %d, concurrency %d, queue %d, timeout %v)\n",
		*addr, *cache, *conc, *queue, *timeout)
	if faults.Enabled() {
		fmt.Fprintf(os.Stderr,
			"memmodeld: FAULT INJECTION ARMED (seed %d): latency p=%.2f (%v), error p=%.2f, unavailable p=%.2f, drop p=%.2f\n",
			faults.Seed, faults.LatencyP, faults.Latency, faults.ErrorP, faults.UnavailableP, faults.DropP)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "memmodeld: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard

	// Graceful drain: stop accepting, fail /healthz, finish in-flight
	// work, then flush the final stats.
	fmt.Fprintln(os.Stderr, "memmodeld: draining")
	srv.Drain()
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "memmodeld: drain incomplete: %v\n", err)
		fmt.Fprintf(os.Stderr, "memmodeld: final stats: %s\n", srv.StatsLine())
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "memmodeld: %v\n", err)
	}
	fmt.Fprintf(os.Stderr, "memmodeld: final stats: %s\n", srv.StatsLine())
}
