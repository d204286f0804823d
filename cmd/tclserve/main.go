// Command tclserve is the evaluation service: the paper's offline scheduler
// and design-family simulator behind an HTTP API, so sweep-heavy workloads
// (re-simulating models under many pattern/back-end configurations) run as
// traffic against a long-lived process that amortizes the schedule cache
// instead of as repeated batch jobs.
//
//	tclserve -addr :8371
//
//	POST /v1/simulate  {"model":"AlexNet-ES","configs":[{"backend":"tcle","pattern":"T8<2,5>"}]}
//	                   add "stream": true for NDJSON per-layer streaming
//	POST /v1/schedule  {"model":"MobileNet","pattern":"T8<2,5>"}
//	POST /v1/shard     coordinator-to-worker leg of shard mode
//	GET  /v1/models    registered workload names (JSON)
//	GET  /healthz      liveness probe
//	GET  /metrics      engine + service counters (JSON)
//
// Identical concurrent requests coalesce onto one engine run, and finished
// sweeps are retained in a byte-budgeted LRU (-cache-budget) keyed by the
// request's content fingerprint, so repeat sweeps are served without
// touching the engine. With -workers url,url,… the process becomes a
// coordinator: each sweep's (config, layer) grid is split across the named
// worker tclserves — layers packed by predicted cost (LPT bin packing) —
// and merged deterministically (bit-identical to a single-process run at
// any worker count). A failed worker's slice is re-dispatched to survivors
// for up to two retry rounds (after a 50 ms pause, then 100 ms), and
// background /healthz probes (-health-interval) keep known-dead workers out
// of new partitions, so a worker killed mid-sweep degrades capacity instead
// of failing requests.
//
// Requests honor a per-request deadline (timeout_ms, clamped to
// -max-timeout): the engine's workers stop claiming work when it expires
// and the request fails with 504 instead of burning the pool. In-flight
// work is bounded by -max-inflight (excess requests get 503). SIGTERM or
// SIGINT drains in-flight requests for up to -drain before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bittactical/internal/serve"
	_ "bittactical/internal/workloads/attention" // register the transformer-era workload zoo
)

func main() {
	var (
		addr        = flag.String("addr", ":8371", "listen address (host:port; port 0 picks a free port)")
		maxInFlight = flag.Int("max-inflight", 4, "max concurrent simulate/schedule requests (excess get 503)")
		defTimeout  = flag.Duration("timeout", time.Minute, "default per-request deadline")
		maxTimeout  = flag.Duration("max-timeout", 5*time.Minute, "upper bound on client-requested deadlines")
		drain       = flag.Duration("drain", 15*time.Second, "how long to drain in-flight requests on shutdown")
		par         = flag.Int("j", 0, "engine worker parallelism per request (0 = GOMAXPROCS)")
		cacheBudget = flag.Int64("cache-budget", serve.DefaultCacheBudget,
			"finished-result cache budget in bytes (0 = default, negative disables retention)")
		workers = flag.String("workers", "",
			"comma-separated worker base URLs; non-empty runs this process as a shard coordinator")
		healthInterval = flag.Duration("health-interval", 5*time.Second,
			"period of the coordinator's background worker /healthz probes (<= 0 disables probing)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "tclserve: unexpected argument %q: every option is a -flag\n", flag.Arg(0))
		os.Exit(2)
	}
	// A value out of range is a usage error, reported before listening:
	// serve.New reads it as its default, which no command line means.
	if err := validateFlags(*maxInFlight, *par, *defTimeout, *maxTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "tclserve:", err)
		os.Exit(2)
	}

	cfg := serve.Config{
		MaxInFlight:    *maxInFlight,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		Parallelism:    *par,
		CacheBudget:    *cacheBudget,
		HealthInterval: *healthInterval,
	}
	if *workers != "" {
		for _, w := range strings.Split(*workers, ",") {
			if w = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(w), "/")); w != "" {
				cfg.Workers = append(cfg.Workers, w)
			}
		}
	}
	s := serve.New(cfg)
	defer s.Close()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tclserve:", err)
		os.Exit(1)
	}
	// The resolved address line is load-bearing: the smoke test (and any
	// operator using port 0) learns the bound port from it.
	log.Printf("tclserve: listening on %s", ln.Addr())
	if len(cfg.Workers) > 0 {
		log.Printf("tclserve: coordinating %d shard workers: %s", len(cfg.Workers), strings.Join(cfg.Workers, ", "))
	}

	srv := &http.Server{
		Handler:           s.Routes(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		log.Fatalf("tclserve: %v", err)
	case <-ctx.Done():
	}
	stop() // restore default signal behavior: a second signal kills immediately
	log.Printf("tclserve: signal received, draining in-flight requests (up to %s)", *drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("tclserve: shutdown: %v", err)
		os.Exit(1)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("tclserve: %v", err)
		os.Exit(1)
	}
	log.Printf("tclserve: drained cleanly")
}

// validateFlags rejects -max-inflight below 1, -j below 0 and a
// non-positive -timeout or -max-timeout. -cache-budget and
// -health-interval take any value: a negative budget disables retention
// and a non-positive interval disables probing.
func validateFlags(maxInFlight, par int, timeout, maxTimeout time.Duration) error {
	switch {
	case maxInFlight < 1:
		return fmt.Errorf("-max-inflight %d must be at least 1", maxInFlight)
	case par < 0:
		return fmt.Errorf("-j %d must be at least 0 (0 = GOMAXPROCS)", par)
	case timeout <= 0:
		return fmt.Errorf("-timeout %s must be positive", timeout)
	case maxTimeout <= 0:
		return fmt.Errorf("-max-timeout %s must be positive", maxTimeout)
	}
	return nil
}
