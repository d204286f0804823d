package serve

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"bittactical/internal/backend"
	"bittactical/internal/fixed"
	"bittactical/internal/metrics"
)

// costlyBackend is a buggy back-end plugin: it streams every activation
// code over 200 cycles, more than the 127 the engine packs costs into, so
// the engine panics while it builds the cost table. No test that walks
// backend.Names() simulates every entry, so registering it here breaks
// nothing else in this package.
type costlyBackend struct{ backend.Backend }

const costlyName = "test-cost-200"

func (costlyBackend) Name() string { return costlyName }
func (costlyBackend) Terms(dst []int64, _ int32, _ fixed.Width) []int64 {
	return append(dst, make([]int64, 200)...)
}

func init() { backend.Register(costlyBackend{backend.MustLookup("TCLe")}) }

// TestEnginePanicIsA500: a panic under the engine call answers the client
// instead of dropping its connection. A buffered /v1/simulate and a
// /v1/shard get a JSON 500 naming the panic, a streamed request gets a
// terminal error line, each counts one failure, and the failed run is not
// cached: the next identical request runs the engine again.
func TestEnginePanicIsA500(t *testing.T) {
	reg := metrics.NewRegistry()
	s := New(Config{MaxInFlight: 2, DefaultTimeout: 30 * time.Second, MaxTimeout: time.Minute, Parallelism: 2, Metrics: reg})
	h := s.Routes()
	failed := reg.Counter("serve_requests_failed_total")
	configs := `"configs":[{"backend":"` + costlyName + `","pattern":"T8<2,5>"}]`
	const want = "engine panic"

	for i, tc := range []struct{ path, body string }{
		{"/v1/simulate", smallBody(configs)},
		{"/v1/simulate", smallBody(configs)}, // identical: runs again
		{"/v1/shard", smallBody(configs + `,"layers":[0]`)},
	} {
		runs, fails := s.Cache().Stats().Runs, failed.Value()
		rec := postJSON(t, h, tc.path, tc.body)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("request %d: %s = %d, want 500 (%s)", i, tc.path, rec.Code, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("request %d: Content-Type = %q, want application/json", i, ct)
		}
		if body := rec.Body.String(); !strings.Contains(body, want) || !strings.Contains(body, costlyName) {
			t.Errorf("request %d: 500 body does not name the panic: %s", i, body)
		}
		if got := failed.Value() - fails; got != 1 {
			t.Errorf("request %d: counted %d failures, want 1", i, got)
		}
		if tc.path == "/v1/simulate" {
			if got := s.Cache().Stats().Runs - runs; got != 1 {
				t.Errorf("request %d: led %d engine runs, want 1 (a failed run must not be cached)", i, got)
			}
		}
	}

	fails := failed.Value()
	rec := postJSON(t, h, "/v1/simulate", smallBody(configs+`,"stream":true`))
	if rec.Code != http.StatusOK {
		t.Fatalf("streamed simulate = %d, want the committed 200 (%s)", rec.Code, rec.Body.String())
	}
	st := parseStream(t, rec.Body.String())
	if st.errLine == nil || !strings.Contains(st.errLine.Error, want) || st.summary != nil {
		t.Fatalf("streamed simulate: lines %v, want a terminal error naming the panic", st.order)
	}
	if got := failed.Value() - fails; got != 1 {
		t.Errorf("streamed simulate: counted %d failures, want 1", got)
	}
}
