package serve

import (
	"context"
	"strings"
	"testing"
)

// TestRunLoadErrorNamesPackage: a drive that cannot read the server's
// /metrics fails with a "serve:" error, so cmd/tclload's own "tclload:"
// prefix is not doubled. The base URL's scheme is one no HTTP client
// speaks, so the test opens no connection.
func TestRunLoadErrorNamesPackage(t *testing.T) {
	rep, err := RunLoad(context.Background(), LoadOptions{BaseURL: "unsupported://nowhere", Requests: 1, Concurrency: 1})
	if rep != nil || err == nil || !strings.HasPrefix(err.Error(), "serve: reading /metrics: ") {
		t.Fatalf("RunLoad = (%v, %v), want nil and an error starting %q", rep, err, "serve: reading /metrics: ")
	}
}

// TestPercentileNearestRank pins percentile to the nearest-rank
// definition: the p-quantile of n sorted samples is sample ceil(p*n), so
// at least p of the samples lie at or below it.
func TestPercentileNearestRank(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
	}{
		{1, 0.50, 1},
		{1, 0.99, 1},
		{2, 0.50, 1},
		{4, 0.50, 2},
		{5, 0.50, 3},
		{7, 0.90, 7}, // rounding p*n = 6.3 picked sample 6
		{10, 0.90, 9},
		{10, 0.99, 10},
		{20, 0.90, 18},
		{20, 0.99, 20},
		{100, 0.99, 99},
		{3, 0, 1},
		{3, 1, 3},
	} {
		if got := percentile(samples(tc.n), tc.p); got != tc.want {
			t.Errorf("percentile(1..%d, %g) = %g, want %g", tc.n, tc.p, got, tc.want)
		}
	}
}
