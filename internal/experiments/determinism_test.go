package experiments

import (
	"fmt"
	"reflect"
	"testing"
)

// The sweep fan-outs must be invisible in the results: every grid cell is
// an independently seeded simulation and rows are written by cell index, so
// workers=1 (the historical sequential loop) and workers=4 must produce
// byte-identical tables.

func TestFig11WorkerCountInvariance(t *testing.T) {
	run := func(workers int) []Fig11Row {
		cfg := Scenario{DurationS: 0.5, QueryRate: 40, Seed: 1}
		rows, err := Fig11ScaleFactor([]int{1, 2, 3}, []float64{0.05, 0.20}, cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	seq, par := run(1), run(4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("Fig 11 rows differ across worker counts:\nseq %+v\npar %+v", seq, par)
	}
}

// Fig 10 with on-demand ECMP query routes: each cell resolves its pair
// routes lazily in its own network, in whatever order traffic first
// references them, and the rendered rows must still match byte for byte.
func TestFig10ECMPWorkerCountInvariance(t *testing.T) {
	run := func(workers int) string {
		cfg := Scenario{DurationS: 0.4, K: 4, ECMPQueries: true}
		rows, err := Fig10AggregationLatency([]int{0, 3}, []float64{0.10, 0.30}, cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, r := range rows {
			out += fmt.Sprintf("fig10 %d %.17g %.17g %.17g %.17g %d\n",
				r.Level, r.BgUtil, r.MeanS, r.P95S, r.P99S, r.Dropped)
		}
		return out
	}
	seq, par := run(1), run(2)
	if seq != par {
		t.Fatalf("ECMP Fig 10 rows differ across worker counts:\n--- workers=1\n%s--- workers=2\n%s", seq, par)
	}
}

func TestFig12bWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-policy server simulation")
	}
	run := func(workers int) []ServerPoint {
		cfg := DefaultServerExpConfig()
		cfg.DurationS = 2
		cfg.Cores = 4
		cfg.Workers = workers
		pts, err := Fig12bConstraintSweep([]float64{20e-3, 30e-3}, 0.30, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	seq, par := run(1), run(4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("Fig 12(b) points differ across worker counts:\nseq %+v\npar %+v", seq, par)
	}
}
