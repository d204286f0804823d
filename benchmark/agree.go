package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadResults reads every result file (not trace file) in dir.
func loadResults(dir string) ([]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []*result
	for _, p := range paths {
		if strings.HasSuffix(p, ".trace.json") {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, &r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	return out, nil
}

// quartiles returns the first, second and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) does (the "exclusive" method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// verdict compares one metric's runs on a baseline (a) and a candidate (b).
// A metric whose run-to-run spread (IQR over median) exceeds its bound on
// either side is unresolved, unless every candidate run beats every
// baseline run.
func verdict(def metricDef, a, b []float64) (string, float64, float64) {
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	spread := 0.0
	if am != 0 && bm != 0 {
		spread = max((a3-a1)/am, (b3-b1)/bm)
	}
	change := 0.0
	if am != 0 {
		change = (bm - am) / am
	}
	worse := change
	if def.Better == "higher" {
		worse = -change
	}
	switch {
	case allBetter(def, a, b):
		return "agree", change, spread
	case spread > def.Bound:
		return "unresolved", change, spread
	case worse > def.Bound:
		return "regress", change, spread
	}
	return "agree", change, spread
}

func allBetter(def metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if (def.Better == "lower" && y >= x) || (def.Better == "higher" && y <= x) {
				return false
			}
		}
	}
	return true
}

// agree compares two result sets workload by workload and prints one
// verdict per (workload, end-to-end metric). It returns false if any pair
// does not agree or the sets cannot be compared.
func agree(w io.Writer, dirA, dirB string) (bool, error) {
	a, err := loadResults(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(dirB)
	if err != nil {
		return false, err
	}
	for _, r := range append(a[1:], b...) {
		if r.Host != a[0].Host {
			return false, fmt.Errorf("host facts differ: %+v (%s) vs %+v (%s)", a[0].Host, a[0].Workload, r.Host, r.Workload)
		}
	}
	values := func(rs []*result, workload, metric string) []float64 {
		var out []float64
		for _, r := range rs {
			if v, ok := r.EndToEnd[metric]; ok && r.Workload == workload {
				out = append(out, v.Value)
			}
		}
		return out
	}
	ok := true
	fmt.Fprintf(w, "%-12s %-17s %5s %5s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "A n", "B n", "median A", "median B", "change", "spread", "bound", "verdict")
	for _, def := range workloads {
		for _, m := range endToEnd {
			va, vb := values(a, def.name, m.Name), values(b, def.name, m.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			v := "unresolved"
			var change, spread float64
			if len(va) > 0 && len(vb) > 0 {
				v, change, spread = verdict(m, va, vb)
			}
			ok = ok && v == "agree"
			_, am, _ := quartiles(va)
			_, bm, _ := quartiles(vb)
			fmt.Fprintf(w, "%-12s %-17s %5d %5d %12.4g %12.4g %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				def.name, m.Name, len(va), len(vb), am, bm, 100*change, 100*spread, 100*m.Bound, v)
		}
	}
	return ok, nil
}
