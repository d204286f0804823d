package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"sort"
	"sync"
	"time"

	"bittactical/internal/metrics"
	"bittactical/internal/sched"
	"bittactical/internal/serve"
	"bittactical/internal/sim"
)

// serveLoad drives an in-process evaluation service over a loopback
// listener with closed-loop clients: each sends its next POST /v1/simulate
// only after reading the previous reply. The hot set of requests is primed
// in setup, so a hot request is a result-cache hit. With mixed set, every
// fourth request of each client is the hot set's first model with a fresh
// activation seed, which runs the engine.
type serveLoad struct {
	prof  profile
	seed  int64
	mixed bool
	wrap  func(http.Handler) http.Handler // tests doctor replies here

	srv    *serve.Server
	hs     *http.Server
	served chan struct{} // closed when the HTTP server has stopped
	base   string
	client *http.Client
	hot    []hotRequest

	mu    sync.Mutex
	fresh []freshReply
}

type hotRequest struct {
	spec serve.ModelSpec
	want []serve.ConfigPayload
}

type freshReply struct {
	spec serve.ModelSpec
	got  []serve.ConfigPayload
}

// reply is what a client learned from one request.
type reply struct {
	dur       time.Duration // POST to the last byte of the body
	status    int
	bytes     int
	source    string
	elapsedMs float64
	configs   []serve.ConfigPayload
}

func (s *serveLoad) clients() int { return httpClients }

func (s *serveLoad) setup(ctx context.Context) (*digest, error) {
	// Every set-up starts from cold engine caches, like a new server process.
	sched.Shared.Reset()
	sim.SharedPlanes.Reset()
	s.srv = serve.New(serve.Config{MaxInFlight: maxInFlight, Parallelism: enginePar, Metrics: metrics.NewRegistry()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := s.srv.Routes()
	if s.wrap != nil {
		h = s.wrap(h)
	}
	s.hs = &http.Server{Handler: h}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: httpClients}}

	g := newDigester()
	for _, name := range s.prof.models {
		spec := serve.ModelSpec{Model: name, ChannelScale: s.prof.channelScale, SpatialScale: s.prof.spatialScale,
			ActSeed: s.seed}
		rep, err := s.post(ctx, spec, false)
		if err != nil {
			return nil, fmt.Errorf("priming %s: %w", name, err)
		}
		s.hot = append(s.hot, hotRequest{spec: spec, want: rep.configs})
		for _, c := range rep.configs {
			for _, l := range c.Layers {
				g.layer(name+"|"+c.Name, l.Name, l.Cycles, l.DenseCycles)
			}
		}
	}
	return g.digest(), nil
}

func (s *serveLoad) op(ctx context.Context, id opID, sp spanRef) opResult {
	// Every client cycles through the whole hot set, so each model keeps
	// its share of the latency sample whatever the interleaving.
	hot := s.hot[(id.k+id.client)%len(s.hot)]
	fresh := s.mixed && id.k%4 == 3
	if fresh {
		// Engine requests are one class, slower than every hit, so the p95
		// falls inside that class rather than between two models' latencies.
		hot = s.hot[0]
	}
	spec := hot.spec
	if fresh {
		spec.ActSeed = s.seed*10_000_000 + int64(id.phase)*1_000_000 + int64(id.client)*100_000 + int64(id.k)
	}
	h := sp.child("serve.http")
	rep, err := s.post(ctx, spec, id.k%2 == 1)
	h.end()
	res := opResult{dur: rep.dur, err: err, serve: &rep}
	if err != nil {
		return res
	}
	if sp.on() {
		if err := replayEdge(sp, spec, fresh); err != nil {
			res.err = err
			return res
		}
	}
	c := sp.child("bench.check")
	defer c.end()
	if !fresh {
		if !reflect.DeepEqual(rep.configs, hot.want) {
			res.err = fmt.Errorf("%s: reply differs from the primed payload", spec.Model)
		}
		return res
	}
	// Dense cycles depend on layer geometry alone, so a fresh request must
	// match its hot twin there; its cycles are checked after the window.
	if len(rep.configs) != len(hot.want) {
		res.err = fmt.Errorf("%s: %d configs, want %d", spec.Model, len(rep.configs), len(hot.want))
		return res
	}
	for k := range rep.configs {
		if rep.configs[k].DenseCycles != hot.want[k].DenseCycles {
			res.err = fmt.Errorf("%s act_seed %d: dense cycles differ from the hot request's", spec.Model, spec.ActSeed)
			return res
		}
	}
	s.mu.Lock()
	s.fresh = append(s.fresh, freshReply{spec: spec, got: rep.configs})
	s.mu.Unlock()
	return res
}

// replayEdge repeats, client-side, the work the server does for every
// request before its cache lookup: resolving the model spec (which builds
// the model) and fingerprinting the request. Engine requests also replay
// activation synthesis.
func replayEdge(sp spanRef, spec serve.ModelSpec, fresh bool) error {
	b := sp.replay("serve.build")
	n := b.child("nn.build")
	m, zoo, actSeed, err := spec.Build()
	n.end()
	if err != nil {
		b.end()
		return err
	}
	f := b.child("serve.fingerprint")
	cfgs, err := buildConfigs(serve.DefaultConfigs())
	if err == nil {
		serve.Fingerprint(m, zoo, actSeed, cfgs)
	}
	f.end()
	b.end()
	if fresh {
		a := sp.replay("nn.acts")
		m.GenerateActs(actSeed)
		a.end()
	}
	return err
}

// post sends one simulate request and parses the reply, buffered or
// streamed. A non-200 status, a transport error and an NDJSON error line
// are all failures.
func (s *serveLoad) post(ctx context.Context, spec serve.ModelSpec, stream bool) (reply, error) {
	body, err := json.Marshal(serve.SimulateRequest{ModelSpec: spec, Stream: stream})
	if err != nil {
		return reply{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{dur: time.Since(t0)}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep := reply{dur: time.Since(t0), status: resp.StatusCode, bytes: len(data)}
	if err != nil {
		return rep, err
	}
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if stream {
		return rep, parseStream(data, &rep)
	}
	var r serve.SimulateResponse
	if err := json.Unmarshal(data, &r); err != nil {
		return rep, err
	}
	rep.source, rep.elapsedMs, rep.configs = r.Source, r.ElapsedMs, r.Configs
	return rep, nil
}

// parseStream rebuilds the buffered payload from NDJSON lines: the header
// names the configs, layer lines fill in cells in any order, and the summary
// gives the totals and the server's elapsed time.
func parseStream(data []byte, rep *reply) error {
	var cells, summaries int
	for _, raw := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var line struct {
			Type    string          `json:"type"`
			Source  string          `json:"source"`
			Configs json.RawMessage `json:"configs"`
			Config  int             `json:"config"`
			Layer   int             `json:"layer"`
			serve.LayerPayload
			ElapsedMs float64 `json:"elapsed_ms"`
			Error     string  `json:"error"`
		}
		if err := json.Unmarshal(raw, &line); err != nil {
			return fmt.Errorf("bad NDJSON line: %w", err)
		}
		switch line.Type {
		case "header":
			var names []string
			if err := json.Unmarshal(line.Configs, &names); err != nil {
				return err
			}
			rep.source = line.Source
			rep.configs = make([]serve.ConfigPayload, len(names))
			for k, n := range names {
				rep.configs[k].Name = n
			}
		case "layer":
			if line.Config < 0 || line.Config >= len(rep.configs) || line.Layer < 0 {
				return fmt.Errorf("layer line for cell (%d, %d) outside the header's configs", line.Config, line.Layer)
			}
			c := &rep.configs[line.Config]
			for len(c.Layers) <= line.Layer {
				c.Layers = append(c.Layers, serve.LayerPayload{})
			}
			c.Layers[line.Layer] = line.LayerPayload
			cells++
		case "summary":
			var totals []serve.ConfigPayload
			if err := json.Unmarshal(line.Configs, &totals); err != nil {
				return err
			}
			if len(totals) != len(rep.configs) {
				return fmt.Errorf("summary has %d configs, header %d", len(totals), len(rep.configs))
			}
			for k, t := range totals {
				rep.configs[k].Cycles, rep.configs[k].DenseCycles, rep.configs[k].Speedup = t.Cycles, t.DenseCycles, t.Speedup
			}
			rep.elapsedMs = line.ElapsedMs
			summaries++
		case "error":
			return fmt.Errorf("stream error line: %s", line.Error)
		}
	}
	want := 0
	for _, c := range rep.configs {
		want += len(c.Layers)
	}
	if summaries != 1 || cells != want {
		return fmt.Errorf("stream ended with %d summaries and %d of %d layer lines", summaries, cells, want)
	}
	return nil
}

func (s *serveLoad) counters() counters {
	return counters{sched: sched.Shared.Stats(), plane: sim.SharedPlanes.Stats()}
}

// finish re-simulates three of the window's fresh requests in process and
// compares every layer's cycles with the server's reply.
func (s *serveLoad) finish(ctx context.Context) []error {
	s.mu.Lock()
	fresh := s.fresh
	s.mu.Unlock()
	if len(fresh) == 0 {
		return nil
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].spec.ActSeed < fresh[j].spec.ActSeed })
	picks := map[int]bool{0: true, len(fresh) / 2: true, len(fresh) - 1: true}
	var errs []error
	for i := range picks {
		if err := resimulate(ctx, fresh[i]); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

func resimulate(ctx context.Context, f freshReply) error {
	m, _, actSeed, err := f.spec.Build()
	if err != nil {
		return err
	}
	cfgs, err := buildConfigs(serve.DefaultConfigs())
	if err != nil {
		return err
	}
	res, err := sim.SimulateSweepContext(ctx, cfgs, m, m.GenerateActs(actSeed), sim.Options{Parallelism: enginePar})
	if err != nil {
		return err
	}
	for k, r := range res {
		if k >= len(f.got) || len(r.Layers) != len(f.got[k].Layers) {
			return fmt.Errorf("%s act_seed %d: reply shape differs from the in-process run", f.spec.Model, actSeed)
		}
		for i, l := range r.Layers {
			if got := f.got[k].Layers[i]; got.Cycles != l.Cycles || got.DenseCycles != l.DenseCycles {
				return fmt.Errorf("%s act_seed %d: %s/%s served %d cycles, in-process run %d",
					f.spec.Model, actSeed, r.Config, l.Name, got.Cycles, l.Cycles)
			}
		}
	}
	return nil
}

func (s *serveLoad) close() {
	if s.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		_ = s.hs.Close() // a request outlived the grace period; drop it
	}
	<-s.served
	s.srv.Close()
	s.client.CloseIdleConnections()
}
