// Command tclload drives a running tclserve with concurrent /v1/simulate
// traffic and reports client-observed latency percentiles alongside the
// server's coalesce and result-cache deltas — the load-shape companion to
// cmd/tclserve.
//
//	tclload -addr http://127.0.0.1:8371 -n 64 -c 8
//
// By default every request is identical, the hot-path shape that measures
// request coalescing and the finished-result LRU (expect a coalesce hit
// rate near 1). With -unique each request rotates its activation seed,
// defeating both — the cold-path shape that measures raw engine throughput.
// The report is one JSON object on stdout; a nonzero exit means the drive
// itself failed (unreachable server), not that individual requests did
// (those are counted in the report).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bittactical/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8371", "tclserve base URL")
		n        = flag.Int("n", 32, "total request count")
		conc     = flag.Int("c", 4, "concurrent in-flight requests")
		model    = flag.String("model", "AlexNet-ES", "model to simulate")
		cscale   = flag.Float64("channel-scale", 0.1, "zoo channel scale (0 = server default)")
		sscale   = flag.Float64("spatial-scale", 0.25, "zoo spatial scale (0 = server default)")
		backends = flag.String("configs", "tcle:T8<2,5>",
			"comma-separated backend[:pattern] config list (empty = server default sweep)")
		stream    = flag.Bool("stream", false, "request NDJSON streaming responses")
		unique    = flag.Bool("unique", false, "rotate act_seed per request (defeat coalescing and the result cache)")
		timeout   = flag.Duration("timeout", 2*time.Minute, "per-request server deadline")
		waitReady = flag.Duration("wait-ready", 0,
			"poll the server's /healthz for up to this long before driving (0 = no wait)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "tclload: unexpected argument %q: every option is a -flag\n", flag.Arg(0))
		os.Exit(2)
	}
	// A value out of range is a usage error, reported before contacting the
	// server: serve.RunLoad would clamp the counts, and a deadline below
	// 1 ms sends no timeout_ms, so the server would use its own default.
	if err := validateFlags(*n, *conc, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "tclload:", err)
		os.Exit(2)
	}

	body := serve.SimulateRequest{Stream: *stream, TimeoutMs: timeout.Milliseconds()}
	body.Model = *model
	body.ChannelScale = *cscale
	body.SpatialScale = *sscale
	for _, spec := range splitConfigs(*backends) {
		cs := serve.ConfigSpec{Backend: spec}
		if be, pat, ok := strings.Cut(spec, ":"); ok {
			cs = serve.ConfigSpec{Backend: be, Pattern: pat}
		}
		body.Configs = append(body.Configs, cs)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	base := strings.TrimSuffix(*addr, "/")
	if *waitReady > 0 {
		if err := awaitReady(ctx, base, *waitReady); err != nil {
			fmt.Fprintln(os.Stderr, "tclload:", err)
			os.Exit(1)
		}
	}
	rep, err := serve.RunLoad(ctx, serve.LoadOptions{
		BaseURL:     base,
		Requests:    *n,
		Concurrency: *conc,
		Body:        body,
		UniqueSeeds: *unique,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tclload:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "tclload:", err)
		os.Exit(1)
	}
	if rep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "tclload: %d of %d requests failed\n", rep.Errors, rep.Requests)
		os.Exit(2)
	}
}

// validateFlags rejects -n and -c below 1 and a -timeout below 1 ms, the
// unit of a request's timeout_ms.
func validateFlags(n, conc int, timeout time.Duration) error {
	switch {
	case n < 1:
		return fmt.Errorf("-n %d must be at least 1", n)
	case conc < 1:
		return fmt.Errorf("-c %d must be at least 1", conc)
	case timeout < time.Millisecond:
		return fmt.Errorf("-timeout %s must be at least 1ms", timeout)
	}
	return nil
}

// awaitReady polls base/healthz until it answers 200, the deadline passes,
// or ctx is cancelled — so scripted drives (the shard smoke test's
// mid-kill scenario) can start the moment a freshly-spawned fleet is up
// instead of sleeping a guessed amount.
func awaitReady(ctx context.Context, base string, d time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server at %s not ready after %s", base, d)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// splitConfigs splits a comma-separated backend[:pattern] list on commas
// outside angle brackets — pattern names like T8<2,5> carry their own.
func splitConfigs(s string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i <= len(s); i++ {
		switch {
		case i == len(s) || (s[i] == ',' && depth == 0):
			if spec := strings.TrimSpace(s[start:i]); spec != "" {
				out = append(out, spec)
			}
			start = i + 1
		case i < len(s) && s[i] == '<':
			depth++
		case i < len(s) && s[i] == '>' && depth > 0:
			depth--
		}
	}
	return out
}
