package twin_test

import (
	"math"
	"sync"
	"testing"
	"time"

	"eprons/internal/core"
	"eprons/internal/netmodel"
	"eprons/internal/power"
	"eprons/internal/twin"
)

// The twin must plug into the planner's inner loop unchanged.
var _ core.ServerModel = (*twin.Model)(nil)

var (
	sharedOnce  sync.Once
	sharedModel *twin.Model
	sharedErr   error
)

// model returns a package-shared k=4 twin (building one compiles 16
// DVFS-stretched service distributions; tests and fuzzing share it).
func model(t testing.TB) *twin.Model {
	sharedOnce.Do(func() {
		sharedModel, sharedErr = twin.New(twin.Config{})
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedModel
}

// An unbounded server budget is met at the lowest frequency, and a NaN
// one is infeasible; neither may panic in the lattice-index conversion.
func TestLookupOverRangeBudget(t *testing.T) {
	m := model(t)
	huge, ok := m.Lookup(0.3, 1e300)
	if !ok {
		t.Fatal("1e300 s budget infeasible")
	}
	if inf, ok := m.Lookup(0.3, math.Inf(1)); !ok || inf != huge {
		t.Fatalf("+Inf budget: %g W (ok %v), want %g W as for 1e300 s", inf, ok, huge)
	}
	if _, ok := m.Lookup(0.3, math.NaN()); ok {
		t.Fatal("NaN budget feasible")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := twin.New(twin.Config{FabricK: 3}); err == nil {
		t.Fatal("odd arity accepted")
	}
	if _, err := twin.New(twin.Config{FabricK: 2}); err == nil {
		t.Fatal("k=2 accepted")
	}
	if _, err := twin.New(twin.Config{SafetyMarginBps: 2e9}); err == nil {
		t.Fatal("margin above capacity accepted")
	}
	m := model(t)
	if _, err := m.WhatIf(twin.Query{AggLevel: 0, BgUtil: -0.1, ServerUtil: 0.3}); err == nil {
		t.Fatal("negative background accepted")
	}
	if _, err := m.WhatIf(twin.Query{AggLevel: 0, BgUtil: 0.1, ServerUtil: -0.3}); err == nil {
		t.Fatal("negative server utilization accepted")
	}
}

func TestGeometry(t *testing.T) {
	m := model(t)
	if m.Hosts() != 16 {
		t.Fatalf("k=4 hosts = %d, want 16", m.Hosts())
	}
	if m.NumAggregationLevels() != 4 {
		t.Fatalf("k=4 levels = %d, want 4", m.NumAggregationLevels())
	}
	// Level 0 = everything on: 20 switches on a 4-ary fat-tree.
	est, err := m.WhatIf(twin.Query{AggLevel: 0, BgUtil: 0.2, ServerUtil: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if est.ActiveSwitches != 20 {
		t.Fatalf("level 0 active switches = %d, want 20", est.ActiveSwitches)
	}
	if est.NetworkPowerW != 20*power.SwitchActiveW {
		t.Fatalf("network power %g", est.NetworkPowerW)
	}
	// Deepest level: 8 edges + 4 aggs (one per pod) + 1 core = 13.
	est, err = m.WhatIf(twin.Query{AggLevel: 3, BgUtil: 0.2, ServerUtil: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if est.ActiveSwitches != 13 {
		t.Fatalf("level 3 active switches = %d, want 13", est.ActiveSwitches)
	}
}

// Latency non-decreasing in background load; network power non-increasing
// in consolidation depth; server power non-increasing in constraint — the
// twin preserves the monotone structure the planner's search relies on.
func TestTwinMonotonic(t *testing.T) {
	m := model(t)
	for level := 0; level < m.NumAggregationLevels(); level++ {
		prev := -1.0
		for _, bg := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5} {
			est, err := m.WhatIf(twin.Query{AggLevel: level, BgUtil: bg, ServerUtil: 0.3})
			if err != nil {
				t.Fatal(err)
			}
			if est.NetTailS < prev-1e-15 {
				t.Fatalf("level %d: tail decreased at bg=%g", level, bg)
			}
			prev = est.NetTailS
		}
	}
	for _, bg := range []float64{0.05, 0.2} {
		prevW := math.Inf(1)
		for level := 0; level < m.NumAggregationLevels(); level++ {
			est, err := m.WhatIf(twin.Query{AggLevel: level, BgUtil: bg, ServerUtil: 0.3})
			if err != nil {
				t.Fatal(err)
			}
			if est.NetworkPowerW > prevW+1e-9 {
				t.Fatalf("bg %g: network power increased at level %d", bg, level)
			}
			prevW = est.NetworkPowerW
		}
	}
	// Looser constraints can only lower the server power.
	prev := math.Inf(1)
	for _, c := range []float64{19e-3, 25e-3, 31e-3, 40e-3} {
		est, err := m.WhatIf(twin.Query{AggLevel: 0, BgUtil: 0.2, ServerUtil: 0.3, TotalConstraintS: c})
		if err != nil {
			t.Fatal(err)
		}
		if !est.Feasible {
			continue
		}
		if est.ServerPowerW > prev+1e-9 {
			t.Fatalf("server power increased at constraint %g", c)
		}
		prev = est.ServerPowerW
	}
}

// The clamp flag: the deepest aggregation level at heavy background pushes
// the core tier past netmodel.UtilClampThreshold — the twin must say so
// instead of silently extrapolating.
func TestTwinClampedFlag(t *testing.T) {
	m := model(t)
	deep := m.NumAggregationLevels() - 1
	est, err := m.WhatIf(twin.Query{AggLevel: deep, BgUtil: 0.5, ServerUtil: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if !est.Clamped {
		t.Fatal("saturated core tier not flagged as clamped")
	}
	if est.WorstHopUtil <= netmodel.UtilClampThreshold {
		t.Fatalf("worst hop %g should exceed the clamp threshold", est.WorstHopUtil)
	}
	est, err = m.WhatIf(twin.Query{AggLevel: 0, BgUtil: 0.2, ServerUtil: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if est.Clamped {
		t.Fatal("in-domain estimate flagged as clamped")
	}
}

// Server side sanity: tighter budgets cost more power, impossible budgets
// are infeasible, and the zero-load server idles at CoreIdleW per core.
func TestTwinServerSide(t *testing.T) {
	m := model(t)
	loose, ok := m.Lookup(0.3, 30e-3)
	if !ok {
		t.Fatal("loose budget infeasible")
	}
	tight, ok := m.Lookup(0.3, 12e-3)
	if !ok {
		t.Fatal("tight budget infeasible")
	}
	if tight < loose-1e-12 {
		t.Fatalf("tight budget %g W cheaper than loose %g W", tight, loose)
	}
	// P(S > 6ms) ≈ 0.16 for the default service distribution: no frequency
	// can meet a 5% violation target there, waiting time aside.
	if _, ok := m.Lookup(0.3, 6e-3); ok {
		t.Fatal("service-bound budget must be infeasible")
	}
	if _, ok := m.Lookup(0.3, 0); ok {
		t.Fatal("zero budget must be infeasible")
	}
	idle, ok := m.Lookup(0, 25e-3)
	if !ok || math.Abs(idle-float64(power.CoresPerServer)*power.CoreIdleW) > 1e-12 {
		t.Fatalf("idle power %g, ok=%v", idle, ok)
	}
	// Heavier load at the same budget costs more.
	lo, _ := m.Lookup(0.1, 25e-3)
	hi, ok := m.Lookup(0.5, 25e-3)
	if !ok || hi < lo-1e-12 {
		t.Fatalf("power not increasing in load: %g vs %g", lo, hi)
	}
}

// BestK mirrors Fig 11: a larger scale factor K keeps more switches alive
// and lowers the tail.
func TestTwinScaleKMode(t *testing.T) {
	m := model(t)
	e1, err := m.WhatIf(twin.Query{AggLevel: -1, ScaleK: 1, BgUtil: 0.3, ServerUtil: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	e4, err := m.WhatIf(twin.Query{AggLevel: -1, ScaleK: 4, BgUtil: 0.3, ServerUtil: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if e4.ActiveSwitches <= e1.ActiveSwitches {
		t.Fatalf("K=4 switches %d <= K=1 switches %d", e4.ActiveSwitches, e1.ActiveSwitches)
	}
	if e4.NetTailS >= e1.NetTailS {
		t.Fatalf("K=4 tail %g >= K=1 tail %g", e4.NetTailS, e1.NetTailS)
	}
	k, best, ok := m.BestK(6, 0.3, 0.3)
	if !ok || best == nil {
		t.Fatal("no feasible K")
	}
	if k < 1 || k > 6 {
		t.Fatalf("BestK out of range: %d", k)
	}
}

// A 100k-host what-if must answer in well under 10 ms (the acceptance
// budget): the twin never builds the topology graph, so fabric size only
// enters as arithmetic.
func TestTwin100kHostQueryUnder10ms(t *testing.T) {
	m, err := twin.New(twin.Config{FabricK: 74})
	if err != nil {
		t.Fatal(err)
	}
	if m.Hosts() < 100000 {
		t.Fatalf("k=74 hosts = %d, want >= 100k", m.Hosts())
	}
	// Warm once (first call touches every cached distribution lazily-cold
	// caches and allocator paths), then time the steady state.
	if _, err := m.WhatIf(twin.Query{AggLevel: 100, BgUtil: 0.3, ServerUtil: 0.4}); err != nil {
		t.Fatal(err)
	}
	const n = 5
	var worst time.Duration
	for i := 0; i < n; i++ {
		q := twin.Query{AggLevel: 50 * i, BgUtil: 0.1 + 0.1*float64(i), ServerUtil: 0.3}
		t0 := time.Now()
		if _, err := m.WhatIf(q); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d > worst {
			worst = d
		}
	}
	if worst > 10*time.Millisecond {
		t.Fatalf("slowest 100k-host what-if took %s, budget 10ms", worst)
	}
}

// FuzzTwinMonotonic drives the two structural invariants the planner's
// search depends on across the whole input domain: tail latency is
// non-decreasing in background load, and network power is non-increasing
// in consolidation depth.
func FuzzTwinMonotonic(f *testing.F) {
	f.Add(uint8(10), uint8(40), uint8(1), uint8(30))
	f.Add(uint8(0), uint8(120), uint8(3), uint8(50))
	f.Add(uint8(200), uint8(200), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, bgA, bgB, level8, util8 uint8) {
		m := model(t)
		// Map fuzz bytes into the valid domain.
		bgLo := float64(bgA) / 255 * 0.6
		bgHi := float64(bgB) / 255 * 0.6
		if bgLo > bgHi {
			bgLo, bgHi = bgHi, bgLo
		}
		level := int(level8) % m.NumAggregationLevels()
		util := float64(util8) / 255 * 0.6
		lo, err := m.WhatIf(twin.Query{AggLevel: level, BgUtil: bgLo, ServerUtil: util})
		if err != nil {
			t.Fatal(err)
		}
		hi, err := m.WhatIf(twin.Query{AggLevel: level, BgUtil: bgHi, ServerUtil: util})
		if err != nil {
			t.Fatal(err)
		}
		if hi.NetTailS < lo.NetTailS-1e-15 {
			t.Fatalf("tail decreased in load: bg %g→%g tail %g→%g (level %d)",
				bgLo, bgHi, lo.NetTailS, hi.NetTailS, level)
		}
		if hi.NetMeanS < lo.NetMeanS-1e-15 {
			t.Fatalf("mean decreased in load: bg %g→%g (level %d)", bgLo, bgHi, level)
		}
		// Deeper consolidation cannot draw more network power.
		if level+1 < m.NumAggregationLevels() {
			deeper, err := m.WhatIf(twin.Query{AggLevel: level + 1, BgUtil: bgHi, ServerUtil: util})
			if err != nil {
				t.Fatal(err)
			}
			if deeper.NetworkPowerW > hi.NetworkPowerW+1e-9 {
				t.Fatalf("network power increased with consolidation: level %d→%d, %g→%g W",
					level, level+1, hi.NetworkPowerW, deeper.NetworkPowerW)
			}
		}
	})
}

func BenchmarkTwinWhatIf(b *testing.B) {
	m, err := twin.New(twin.Config{FabricK: 74})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.WhatIf(twin.Query{AggLevel: 100, BgUtil: 0.3, ServerUtil: 0.4}); err != nil {
			b.Fatal(err)
		}
	}
}
