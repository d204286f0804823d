package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"bittactical/internal/serve"
)

// TestServeSmoke builds the real tclserve binary, starts it on an ephemeral
// port, exercises /healthz, /v1/simulate, and /metrics over real TCP, then
// SIGTERMs it and requires a clean drain. Gated behind TCL_SERVE_SMOKE=1
// (run via `make serve-smoke`) so ordinary `go test ./...` stays hermetic.
func TestServeSmoke(t *testing.T) {
	if os.Getenv("TCL_SERVE_SMOKE") != "1" {
		t.Skip("set TCL_SERVE_SMOKE=1 (or run `make serve-smoke`) to exercise the real binary")
	}

	bin := filepath.Join(t.TempDir(), "tclserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-drain", "5s")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The server logs its resolved address; everything after that line is
	// drained in the background so the child never blocks on a full pipe.
	sc := bufio.NewScanner(stderr)
	var baseURL string
	for sc.Scan() {
		line := sc.Text()
		t.Logf("tclserve: %s", line)
		if i := strings.Index(line, "listening on "); i >= 0 {
			baseURL = "http://" + strings.TrimSpace(line[i+len("listening on "):])
			break
		}
	}
	if baseURL == "" {
		t.Fatalf("server exited without logging its address (scan err: %v)", sc.Err())
	}
	logRest := make(chan struct{})
	go func() {
		defer close(logRest)
		for sc.Scan() {
			t.Logf("tclserve: %s", sc.Text())
		}
	}()

	get := func(path string) (*http.Response, error) { return http.Get(baseURL + path) }

	// Liveness.
	resp, err := get("/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d", resp.StatusCode)
	}

	// One real simulation.
	body := `{"model":"AlexNet-ES","channel_scale":0.1,"spatial_scale":0.25,"configs":[{"backend":"tcle","pattern":"T8<2,5>"}]}`
	sresp, err := http.Post(baseURL+"/v1/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/simulate: %v", err)
	}
	var sim serve.SimulateResponse
	err = json.NewDecoder(sresp.Body).Decode(&sim)
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("POST /v1/simulate = %d (decode err %v)", sresp.StatusCode, err)
	}
	if len(sim.Configs) != 1 || sim.Configs[0].Cycles == 0 {
		t.Fatalf("empty simulate response: %+v", sim)
	}
	fmt.Printf("smoke: %s %s: %d cycles, speedup %.2f\n",
		sim.Model, sim.Configs[0].Name, sim.Configs[0].Cycles, sim.Configs[0].Speedup)

	// Metrics must show engine activity.
	mresp, err := get("/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var snap map[string]json.RawMessage
	err = json.NewDecoder(mresp.Body).Decode(&snap)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("GET /metrics = %d (decode err %v)", mresp.StatusCode, err)
	}
	for _, name := range []string{"serve_requests_total", "sim_pool_items_total", "sched_cache_misses"} {
		var v int64
		if err := json.Unmarshal(snap[name], &v); err != nil || v == 0 {
			t.Errorf("metric %s = %s (err %v), want nonzero", name, snap[name], err)
		}
	}

	// Graceful shutdown: SIGTERM must drain and exit 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("tclserve exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("tclserve did not exit within 15s of SIGTERM")
	}
	<-logRest
}

// startServe launches a freshly-built tclserve binary with the given extra
// flags, scrapes its resolved listen address off stderr, and registers a
// kill on test cleanup. It returns the base URL and the process handle (so
// failover scenarios can kill a worker mid-run). The rest of the log is
// drained in the background.
func startServe(t *testing.T, bin string, extra ...string) (string, *exec.Cmd) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-drain", "5s"}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })

	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		t.Logf("tclserve%v: %s", extra, line)
		if i := strings.Index(line, "listening on "); i >= 0 {
			go func() {
				for sc.Scan() {
				}
			}()
			return "http://" + strings.TrimSpace(line[i+len("listening on "):]), cmd
		}
	}
	t.Fatalf("server exited without logging its address (scan err: %v)", sc.Err())
	return "", nil
}

// TestShardSmoke is the distributed-mode load smoke: real binaries, real
// TCP. A coordinator fronting two shard workers must return byte-identical
// results to a standalone single-process server, and a short tclload run
// against the coordinator must complete with zero errors and a nonzero
// coalesce hit rate. Gated behind TCL_SHARD_SMOKE=1 (`make shard-smoke`).
func TestShardSmoke(t *testing.T) {
	if os.Getenv("TCL_SHARD_SMOKE") != "1" {
		t.Skip("set TCL_SHARD_SMOKE=1 (or run `make shard-smoke`) to exercise shard mode end to end")
	}

	dir := t.TempDir()
	serveBin := filepath.Join(dir, "tclserve")
	loadBin := filepath.Join(dir, "tclload")
	if out, err := exec.Command("go", "build", "-o", serveBin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build tclserve: %v\n%s", err, out)
	}
	if out, err := exec.Command("go", "build", "-o", loadBin, "../tclload").CombinedOutput(); err != nil {
		t.Fatalf("go build tclload: %v\n%s", err, out)
	}

	solo, _ := startServe(t, serveBin)
	w1, _ := startServe(t, serveBin)
	w2, w2cmd := startServe(t, serveBin)
	coord, _ := startServe(t, serveBin, "-workers", w1+","+w2, "-health-interval", "500ms")

	// The same sweep through both deployment shapes must agree byte for byte.
	body := `{"model":"AlexNet-ES","channel_scale":0.1,"spatial_scale":0.25,"configs":[{"backend":"tcle","pattern":"T8<2,5>"},{"backend":"tclp","pattern":"L4<1,2>"}]}`
	post := func(base string) serve.SimulateResponse {
		t.Helper()
		resp, err := http.Post(base+"/v1/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", base, err)
		}
		defer resp.Body.Close()
		var sim serve.SimulateResponse
		if err := json.NewDecoder(resp.Body).Decode(&sim); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s = %d (decode err %v)", base, resp.StatusCode, err)
		}
		return sim
	}
	got, want := post(coord), post(solo)
	gotJSON, _ := json.Marshal(got.Configs)
	wantJSON, _ := json.Marshal(want.Configs)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("sharded result differs from single-process:\n  coord: %s\n  solo:  %s", gotJSON, wantJSON)
	}
	if got.Fingerprint != want.Fingerprint {
		t.Fatalf("fingerprint mismatch: %s vs %s", got.Fingerprint, want.Fingerprint)
	}
	fmt.Printf("shard-smoke: coordinator over 2 workers bit-identical to single-process (%d configs)\n", len(got.Configs))

	// Drive the coordinator with the real load tool: identical concurrent
	// requests must all succeed and mostly coalesce.
	load := exec.Command(loadBin, "-addr", coord, "-n", "8", "-c", "4",
		"-model", "AlexNet-ES", "-channel-scale", "0.1", "-spatial-scale", "0.25",
		"-configs", "tcle:T8<2,5>", "-timeout", "2m")
	out, err := load.Output()
	if err != nil {
		t.Fatalf("tclload: %v\n%s", err, out)
	}
	t.Logf("tclload: %s", out)
	var rep serve.LoadReport
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("tclload report: %v\n%s", err, out)
	}
	if rep.Errors != 0 || rep.Requests != 8 {
		t.Fatalf("load run unhealthy: %+v", rep)
	}
	if rep.CoalesceHitRate <= 0 {
		t.Fatalf("identical concurrent requests did not coalesce: %+v", rep)
	}
	fmt.Printf("shard-smoke: tclload 8 req @4 conc: p50 %.1fms p99 %.1fms, hit rate %.2f\n",
		rep.P50Ms, rep.P99Ms, rep.CoalesceHitRate)

	// Failover under fire: SIGKILL one worker while a unique-seed drive (no
	// coalescing, no result cache — every request really dispatches) is in
	// flight. Every request must still succeed: the dead worker's slices
	// fail over to the survivor.
	killLoad := exec.Command(loadBin, "-addr", coord, "-n", "6", "-c", "2", "-unique",
		"-model", "AlexNet-ES", "-channel-scale", "0.1", "-spatial-scale", "0.25",
		"-configs", "tcle:T8<2,5>", "-timeout", "2m", "-wait-ready", "5s")
	var killOut, killErrBuf strings.Builder
	killLoad.Stdout, killLoad.Stderr = &killOut, &killErrBuf
	if err := killLoad.Start(); err != nil {
		t.Fatalf("tclload (kill drive): %v", err)
	}
	killDone := make(chan error, 1)
	go func() { killDone <- killLoad.Wait() }()
	time.Sleep(300 * time.Millisecond) // let the drive get requests in flight
	if err := w2cmd.Process.Kill(); err != nil {
		t.Fatalf("kill worker: %v", err)
	}
	t.Logf("shard-smoke: killed worker %s mid-drive", w2)
	if err := <-killDone; err != nil {
		t.Fatalf("tclload survived-kill drive failed: %v\nstdout: %s\nstderr: %s", err, killOut.String(), killErrBuf.String())
	}
	var killRep serve.LoadReport
	if err := json.Unmarshal([]byte(killOut.String()), &killRep); err != nil {
		t.Fatalf("tclload kill-drive report: %v\n%s", err, killOut.String())
	}
	if killRep.Errors != 0 || killRep.Requests != 6 {
		t.Fatalf("kill-drive run unhealthy: %+v", killRep)
	}

	// A fresh activation seed (never requested above, so neither coalescing
	// nor the result cache can answer) forces a real dispatch over the
	// degraded fleet — and must still match single-process byte for byte.
	freshBody := `{"model":"AlexNet-ES","channel_scale":0.1,"spatial_scale":0.25,"act_seed":424242,"configs":[{"backend":"tcle","pattern":"T8<2,5>"},{"backend":"tclp","pattern":"L4<1,2>"}]}`
	postBody := func(base, body string) serve.SimulateResponse {
		t.Helper()
		resp, err := http.Post(base+"/v1/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", base, err)
		}
		defer resp.Body.Close()
		var sim serve.SimulateResponse
		if err := json.NewDecoder(resp.Body).Decode(&sim); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s = %d (decode err %v)", base, resp.StatusCode, err)
		}
		return sim
	}
	degraded, ref := postBody(coord, freshBody), postBody(solo, freshBody)
	degradedJSON, _ := json.Marshal(degraded.Configs)
	refJSON, _ := json.Marshal(ref.Configs)
	if string(degradedJSON) != string(refJSON) {
		t.Fatalf("degraded-fleet result differs from single-process:\n  coord: %s\n  solo:  %s", degradedJSON, refJSON)
	}
	fmt.Printf("shard-smoke: worker killed mid-drive, fleet degraded 2->1, results still bit-identical\n")
}
