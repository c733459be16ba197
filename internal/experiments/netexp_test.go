package experiments

import (
	"errors"
	"strings"
	"testing"

	"eprons/internal/fattree"
	"eprons/internal/topology"
)

// Pod-pair elephants must never take a flow ID from the query-pair space
// [0, hosts²): a shared ID would let an elephant and a pair overwrite
// each other's route.
func TestPodPairElephantIDsAvoidPairSpace(t *testing.T) {
	for _, k := range []int{4, 8, 16, 32} {
		cfg := fattree.DefaultConfig()
		cfg.K = k
		ft, err := fattree.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hosts := len(ft.Hosts)
		flows := podPairElephants(ft, 0.1)
		if len(flows) != k*(k-1) {
			t.Fatalf("k=%d: %d elephants, want %d", k, len(flows), k*(k-1))
		}
		for _, f := range flows {
			if int64(f.ID) >= 0 && int64(f.ID) < int64(hosts)*int64(hosts) {
				t.Fatalf("k=%d: elephant ID %d inside the pair space [0, %d)", k, f.ID, hosts*hosts)
			}
		}
		if k <= 8 && flows[0].ID != 50000 {
			t.Errorf("k=%d: first elephant ID %d, want the pinned 50000", k, flows[0].ID)
		}
	}
}

// With ECMPQueries, a query pair that has no active shortest path must
// fail the run with ErrInfeasible, not drop its queries silently.
func TestECMPUnroutablePairInfeasible(t *testing.T) {
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Host 0 carries no pod-pair elephant, so cutting its access link
	// leaves background placement feasible while every query pair
	// touching host 0 loses its route.
	for _, f := range podPairElephants(ft, 0.1) {
		if f.Src == ft.Hosts[0] || f.Dst == ft.Hosts[0] {
			t.Fatal("host 0 carries an elephant; pick another host")
		}
	}
	lid, ok := ft.Graph.FindLink(ft.Hosts[0], ft.Edge(0, 0))
	if !ok {
		t.Fatal("no access link for host 0")
	}
	s := netDefaults(Scenario{DurationS: 0.2, ECMPQueries: true, BgUtil: 0.1}, 10e6)
	s.Active = func(ft *fattree.FatTree) *topology.ActiveSet {
		active := ft.AggregationPolicy(0).Clone()
		active.SetLink(lid, false)
		return active
	}
	_, err = Run(s)
	if !errors.Is(err, ErrInfeasible) || !strings.Contains(err.Error(), "no active ECMP path") {
		t.Fatalf("err = %v, want ErrInfeasible for unrouted query messages", err)
	}
	// The intact policy routes every pair.
	s.Active = aggregationPolicy(0)
	if _, err := Run(s); err != nil {
		t.Fatalf("intact fabric: %v", err)
	}
}
