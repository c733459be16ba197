package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

func TestMetricNamesAndUnits(t *testing.T) {
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q does not match %v", m.name, metricName)
		}
		if !unit.MatchString(m.unit) {
			t.Errorf("metric %q has unit %q", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric %q listed twice", m.name)
		}
		seen[m.name] = true
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json's metric lists in step
// with the metrics the harness prints.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, harness prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), harness prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, harness has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, harness has %q", i, w.Name, workloads[i].name)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		med        float64
		q1, q3     float64
		skipQuarts bool
	}{
		// Expected quartiles are Python's statistics.quantiles(xs, n=4).
		{xs: []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, med: 5.5, q1: 2.75, q3: 8.25},
		{xs: []float64{1, 2, 3, 4, 5}, med: 3, q1: 1.5, q3: 4.5},
		{xs: []float64{7, 1}, med: 4, q1: -0.5, q3: 8.5},
		{xs: []float64{2.5, 0.5, 9, 4}, med: 3.25, q1: 1, q3: 7.75},
		{xs: []float64{3}, med: 3, skipQuarts: true},
	} {
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		if c.skipQuarts {
			continue
		}
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestReduce checks the printed report: exactly the end-to-end metrics of
// an untraced run, exactly the per-layer metrics of a traced one, and a
// digest that differs between repetitions counted as a failed check.
func TestReduce(t *testing.T) {
	rep := func(traced bool, digest string) repOutput {
		return repOutput{Traced: traced, SetupCPU: 1, RunCPU: 2, SetupWall: 1, RunWall: 2, Resolved: 10,
			RSSMB: 50, Digest: digest, Checks: 6, Layer: map[string]float64{"sim.events": 7}}
	}
	r := runResult{reps: []repOutput{rep(false, "a"), rep(false, "a"), rep(false, "a")}}
	r.reduce(false)
	if !r.report.Correct || r.report.Attempted != 19 || r.report.Failed != 0 {
		t.Fatalf("untraced report %+v", r.report)
	}
	if len(r.report.Metrics) != len(endToEnd) || r.report.Metrics["queries_per_cpu_s"].Value != 5 {
		t.Fatalf("untraced metrics %+v", r.report.Metrics)
	}

	r = runResult{reps: []repOutput{rep(false, "a"), rep(true, "b")}}
	r.reduce(true)
	if r.report.Correct || r.report.Failed != 1 {
		t.Fatalf("digest mismatch not counted: %+v", r.report)
	}
	if len(r.report.Metrics) != len(perLayer) || r.report.Metrics["sim.events"].Value != 7 {
		t.Fatalf("traced metrics %+v", r.report.Metrics)
	}
	for _, m := range perLayer {
		if _, ok := r.report.Metrics[m.name]; !ok {
			t.Errorf("traced report misses %s", m.name)
		}
	}
}

// TestTracingChangesNothingSimulated runs each workload briefly untraced
// and traced: the simulated digests must be equal and every correctness
// check must hold. Another seed must change the digest.
func TestTracingChangesNothingSimulated(t *testing.T) {
	short := map[string]float64{"joint-k4": 0.5, "fabric-k16": 0.25, "replica-hedged": 2}
	for i := range workloads {
		def := &workloads[i]
		t.Run(def.name, func(t *testing.T) {
			plain, err := runRep(def, defaultSeed, short[def.name], false, "")
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runRep(def, defaultSeed, short[def.name], true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if plain.Digest != traced.Digest {
				t.Errorf("traced digest %s != untraced %s", traced.Digest, plain.Digest)
			}
			for _, r := range []repOutput{plain, traced} {
				if len(r.Failed) > 0 || r.Checks == 0 {
					t.Errorf("checks: %d run, failed %v", r.Checks, r.Failed)
				}
			}
			if def.name != "replica-hedged" {
				return
			}
			other, err := runRep(def, heldOutSeed, short[def.name], false, "")
			if err != nil {
				t.Fatal(err)
			}
			if other.Digest == plain.Digest {
				t.Errorf("seeds %d and %d give the same digest %s", defaultSeed, heldOutSeed, plain.Digest)
			}
		})
	}
}
