package netsim

import (
	"testing"

	"eprons/internal/flow"
	"eprons/internal/topology"
)

// TestStatsIntoVariants pins the reuse contract of the *Into stats pollers:
// identical contents to a fresh (nil-map) poll, stale keys cleared on
// refill, and zero allocations once the scratch map exists.
func TestStatsIntoVariants(t *testing.T) {
	eng, n := benchChain(t, DefaultConfig())
	n.SendMessage(1, 6000, nil, nil)
	eng.RunAll()

	wantLB := n.LinkBytesInto(nil)
	wantLU := n.LinkUtilizationInto(nil, 2)
	wantFR := n.FlowRatesInto(nil, 2)
	if len(wantLB) == 0 || len(wantLU) == 0 || len(wantFR) == 0 {
		t.Fatal("expected non-empty stats after traffic")
	}

	// Seed the scratch maps with stale garbage that must disappear.
	lb := map[topology.LinkID]int64{999: 1}
	lu := map[topology.LinkID]float64{999: 1}
	fr := map[flow.ID]float64{999: 1}
	lb = n.LinkBytesInto(lb)
	lu = n.LinkUtilizationInto(lu, 2)
	fr = n.FlowRatesInto(fr, 2)

	if len(lb) != len(wantLB) {
		t.Fatalf("LinkBytesInto kept stale keys: got %d entries, want %d", len(lb), len(wantLB))
	}
	for k, v := range wantLB {
		if lb[k] != v {
			t.Fatalf("LinkBytesInto[%d] = %d, want %d", k, lb[k], v)
		}
	}
	if len(lu) != len(wantLU) {
		t.Fatalf("LinkUtilizationInto kept stale keys: got %d, want %d", len(lu), len(wantLU))
	}
	for k, v := range wantLU {
		if lu[k] != v {
			t.Fatalf("LinkUtilizationInto[%d] = %g, want %g", k, lu[k], v)
		}
	}
	if len(fr) != len(wantFR) {
		t.Fatalf("FlowRatesInto kept stale keys: got %d, want %d", len(fr), len(wantFR))
	}
	for k, v := range wantFR {
		if fr[k] != v {
			t.Fatalf("FlowRatesInto[%d] = %g, want %g", k, fr[k], v)
		}
	}

	// nil scratch allocates (and matches the allocating variant).
	if got := n.FlowRatesInto(nil, 2); len(got) != len(wantFR) {
		t.Fatalf("FlowRatesInto(nil) = %d entries, want %d", len(got), len(wantFR))
	}

	// Window <= 0 clears and returns empty, like the allocating variants.
	if got := n.LinkUtilizationInto(lu, 0); len(got) != 0 {
		t.Fatalf("LinkUtilizationInto(window=0) = %d entries, want 0", len(got))
	}
	if got := n.FlowRatesInto(fr, -1); len(got) != 0 {
		t.Fatalf("FlowRatesInto(window<0) = %d entries, want 0", len(got))
	}

	// Steady-state polling through a retained scratch map is allocation
	// free (the whole point of the Into variants).
	lb2 := n.LinkBytesInto(nil)
	lu2 := n.LinkUtilizationInto(nil, 2)
	fr2 := n.FlowRatesInto(nil, 2)
	allocs := testing.AllocsPerRun(100, func() {
		lb2 = n.LinkBytesInto(lb2)
		lu2 = n.LinkUtilizationInto(lu2, 2)
		fr2 = n.FlowRatesInto(fr2, 2)
	})
	if allocs != 0 {
		t.Fatalf("Into pollers allocated %.1f per run, want 0", allocs)
	}
}
