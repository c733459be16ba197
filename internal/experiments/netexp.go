package experiments

import (
	"errors"
	"fmt"

	"eprons/internal/consolidate"
	"eprons/internal/fattree"
	"eprons/internal/flow"
	"eprons/internal/metrics"
	"eprons/internal/parallel"
	"eprons/internal/power"
	"eprons/internal/rng"
	"eprons/internal/topology"
)

// KneePoint is one Fig 1 measurement.
type KneePoint struct {
	Utilization float64
	MeanS       float64
	P95S        float64
	P99S        float64
}

// Fig01Knee measures query latency on a single bottleneck link as
// background utilization sweeps — the utilization-latency knee that
// motivates latency-aware consolidation. durationS seconds are simulated
// per point.
func Fig01Knee(utils []float64, durationS float64, seed int64) ([]KneePoint, error) {
	var out []KneePoint
	for i, u := range utils {
		g := topology.NewGraph()
		h0 := g.AddNode("h0", topology.Host, 0)
		sw := g.AddNode("sw", topology.EdgeSwitch, 36)
		h1 := g.AddNode("h1", topology.Host, 0)
		if _, err := g.AddLink(h0, sw, 1e9, 0); err != nil {
			return nil, err
		}
		if _, err := g.AddLink(sw, h1, 1e9, 0); err != nil {
			return nil, err
		}
		eng, net := newNetwork(g, false)
		path := topology.Path{h0, sw, h1}
		if err := net.SetRoute(1, path); err != nil {
			return nil, err
		}
		if err := net.SetRoute(2, path); err != nil {
			return nil, err
		}
		bg := net.StartBackground(2, func() float64 { return u * 1e9 }, rng.Derive(seed, fmt.Sprintf("knee-bg-%d", i)))
		var tr metrics.Tracker
		qs := rng.Derive(seed, fmt.Sprintf("knee-q-%d", i))
		var send func()
		send = func() {
			net.SendMessage(1, 1500, func(l float64) { tr.Add(l) }, nil)
			if eng.Now() < durationS {
				eng.After(qs.Exp(400e-6), send)
			}
		}
		eng.After(1e-3, send)
		eng.Run(durationS)
		bg.Stop()
		out = append(out, KneePoint{
			Utilization: u,
			MeanS:       tr.Mean(),
			P95S:        tr.Quantile(0.95),
			P99S:        tr.Quantile(0.99),
		})
	}
	return out, nil
}

// Fig02Row describes one scale factor's placement in the Fig 2 demo.
type Fig02Row struct {
	K              float64
	ActiveSwitches int
	SharedWithBig  int // latency-sensitive flows sharing a link with the elephant
	Feasible       bool
}

// Fig02ScaleDemo reproduces the worked example: a 900 Mbps elephant plus
// two 20 Mbps latency-sensitive flows under K = 1, 2, 3.
func Fig02ScaleDemo() ([]Fig02Row, *fattree.FatTree, map[float64]*consolidate.Result, error) {
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	flows := []flow.Flow{
		{ID: 0, Src: ft.Hosts[1], Dst: ft.Hosts[5], DemandBps: 900e6, Class: flow.Background},
		{ID: 1, Src: ft.Hosts[0], Dst: ft.Hosts[4], DemandBps: 20e6, Class: flow.LatencySensitive},
		{ID: 2, Src: ft.Hosts[2], Dst: ft.Hosts[6], DemandBps: 20e6, Class: flow.LatencySensitive},
	}
	var rows []Fig02Row
	results := map[float64]*consolidate.Result{}
	for _, k := range []float64{1, 2, 3} {
		res, err := consolidate.Greedy(ft, flows, consolidate.Config{ScaleK: k, SafetyMarginBps: 50e6})
		if err != nil {
			return nil, nil, nil, err
		}
		results[k] = res
		row := Fig02Row{K: k, Feasible: res.Feasible, ActiveSwitches: res.Active.ActiveSwitches()}
		ele := map[topology.LinkID]bool{}
		if p, ok := res.Paths[0]; ok {
			for _, l := range p.Links(ft.Graph) {
				ele[l] = true
			}
		}
		for _, id := range []flow.ID{1, 2} {
			if p, ok := res.Paths[id]; ok {
				for _, l := range p.Links(ft.Graph) {
					if ele[l] {
						row.SharedWithBig++
						break
					}
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, ft, results, nil
}

// Fig08Point is one switch power sample.
type Fig08Point struct {
	Utilization float64
	PowerW      float64
}

// Fig08SwitchPower evaluates the measured HPE curve — flat to within 0.6%.
func Fig08SwitchPower() []Fig08Point {
	var out []Fig08Point
	for u := 0.0; u <= 1.0001; u += 0.1 {
		out = append(out, Fig08Point{Utilization: u, PowerW: power.HPESwitchW(u)})
	}
	return out
}

// Fig09Row summarizes one aggregation policy.
type Fig09Row struct {
	Level          int
	ActiveSwitches int
	ActiveLinks    int
	NetworkPowerW  float64
	Connected      bool
}

// Fig09Policies enumerates the four consolidation levels of the 4-ary
// fat-tree.
func Fig09Policies() ([]Fig09Row, error) {
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		return nil, err
	}
	var out []Fig09Row
	for j := 0; j < ft.NumAggregationPolicies(); j++ {
		a := ft.AggregationPolicy(j)
		out = append(out, Fig09Row{
			Level:          j,
			ActiveSwitches: a.ActiveSwitches(),
			ActiveLinks:    a.ActiveLinks(),
			NetworkPowerW:  a.NetworkPowerW(),
			Connected:      a.HostsConnected(),
		})
	}
	return out, nil
}

// ecmpPath returns the deterministic hash-probed active ECMP shortest
// path for ordered host pair (i, j), built into buf's backing (pass the
// returned path back as buf to probe the next pair without allocating).
// The probe order is a murmur-style hash of the pair, so reruns pick the
// same path whatever order the pairs first exchange traffic in.
func ecmpPath(ft *fattree.FatTree, active *topology.ActiveSet, i, j int, buf topology.Path) (topology.Path, bool) {
	src, dst := ft.Hosts[i], ft.Hosts[j]
	np := ft.NumPaths(src, dst)
	h := uint64(i)<<32 | uint64(j)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	start := int(h % uint64(np))
	for t := 0; t < np; t++ {
		buf = ft.PathByIndexInto(src, dst, (start+t)%np, buf)
		if active.PathOn(buf) {
			return buf, true
		}
	}
	return buf, false
}

// ErrInfeasible reports that a flow set could not be placed at the
// requested operating point (expected for large K at high background).
var ErrInfeasible = errors.New("placement infeasible")

// Fig10Row is one (aggregation, background) latency measurement.
type Fig10Row struct {
	Level   int
	BgUtil  float64
	MeanS   float64
	P95S    float64
	P99S    float64
	Dropped int
}

// podPairElephants returns one background elephant per ordered pod pair,
// each demanding bgUtil of a link. Each pod's elephants are spread across
// its hosts (one per source host) so access links are not the
// bottleneck. Query pairs own flow IDs [0, hosts²)
// (cluster.FlowID(i, j) = i*hosts+j), so the elephant IDs start at
// max(50000, hosts²): k ≤ 8 fabrics keep their pinned IDs, and no
// elephant shares an ID — and hence a route — with a query pair.
func podPairElephants(ft *fattree.FatTree, bgUtil float64) []flow.Flow {
	k := ft.Cfg.K
	hosts := len(ft.Hosts)
	hostsPerPod := hosts / k
	fid := flow.ID(max(50000, hosts*hosts))
	out := make([]flow.Flow, 0, k*(k-1))
	for sp := 0; sp < k; sp++ {
		for dp := 0; dp < k; dp++ {
			if sp == dp {
				continue
			}
			out = append(out, flow.Flow{
				ID:        fid,
				Src:       ft.Hosts[sp*hostsPerPod+dp%hostsPerPod],
				Dst:       ft.Hosts[dp*hostsPerPod+sp%hostsPerPod],
				DemandBps: bgUtil * ft.Cfg.LinkCapacityBps,
				Class:     flow.Background,
			})
			fid++
		}
	}
	return out
}

// ecmpResolver returns the on-demand route source for query pair flows:
// flow i*hosts+j resolves to ecmpPath(i, j) over active. A pair with no
// active shortest path resolves to nil (its message drops) and bumps
// *unrouted, so the caller can report the run infeasible.
func ecmpResolver(ft *fattree.FatTree, active *topology.ActiveSet, unrouted *int) func(flow.ID) topology.Path {
	hosts := int64(len(ft.Hosts))
	var scratch topology.Path
	return func(fid flow.ID) topology.Path {
		q := int64(fid)
		if q < 0 || q >= hosts*hosts {
			return nil
		}
		i, j := int(q/hosts), int(q%hosts)
		if i == j {
			return nil
		}
		p, ok := ecmpPath(ft, active, i, j, scratch)
		scratch = p
		if !ok {
			*unrouted++
			return nil
		}
		return p
	}
}

// netDefaults fills the base scenario of the Fig 10/11 grids: 3 s of 40
// queries/s with seed 1 in every cell, a 2-core MaxFreq cluster with no
// recovery machinery, and the per-pair reservation floor reserveBps when
// unset.
func netDefaults(s Scenario, reserveBps float64) Scenario {
	s = sweepDefaults(s, "bg", 3, 40)
	if s.ReserveBps <= 0 {
		s.ReserveBps = reserveBps
	}
	if s.SubQueryTimeout == 0 {
		s.SubQueryTimeout = Disabled
	}
	if s.RetryBudget == 0 {
		s.RetryBudget = Disabled
	}
	return s
}

// aggregationPolicy fixes a cell's active set to a Fig 9 aggregation level.
func aggregationPolicy(level int) func(*fattree.FatTree) *topology.ActiveSet {
	return func(ft *fattree.FatTree) *topology.ActiveSet { return ft.AggregationPolicy(level) }
}

// Fig10AggregationLatency sweeps aggregation level × background traffic
// and reports query network latency (the Fig 10(a)/(b) series). base
// supplies the fabric, traffic and routing (netDefaults); every cell
// fixes its active set to the aggregation policy and places by mean query
// demand (ReserveBps 1): the burst reservation is the scale-factor
// experiment's concern (Fig 11) and would make deep aggregation
// artificially infeasible here. Cells fan out over workers goroutines
// (<= 1 runs sequentially); rows are identical for every worker count.
func Fig10AggregationLatency(levels []int, bgUtils []float64, base Scenario, workers int) ([]Fig10Row, error) {
	base = netDefaults(base, 1)
	// Each (level, background) cell is an independent simulation with its
	// own engine and seed-derived streams: fan out and keep row order.
	nb := len(bgUtils)
	return parallel.Map(len(levels)*nb, workers, func(i int) (Fig10Row, error) {
		level, bg := levels[i/nb], bgUtils[i%nb]
		s := base
		s.BgUtil = bg
		s.Active = aggregationPolicy(level)
		r, err := Run(s)
		if err != nil {
			return Fig10Row{}, fmt.Errorf("level %d bg %.2f: %w", level, bg, err)
		}
		st := r.Stats
		return Fig10Row{
			Level:  level,
			BgUtil: bg,
			MeanS:  st.NetReqLat.Mean(),
			P95S:   st.NetReqLat.Quantile(0.95),
			P99S:   st.NetReqLat.Quantile(0.99),
		}, nil
	})
}

// Fig11Row is one (K, background) operating point.
type Fig11Row struct {
	K              int
	BgUtil         float64
	P95S           float64
	ActiveSwitches int
	Feasible       bool
}

// Fig11ScaleFactor sweeps the scale factor K under consolidation (no fixed
// policy): larger K activates more switches and lowers tail latency — the
// Fig 11(a)/(b)/(c) trade-off. base is as for Fig10AggregationLatency,
// except the query pairs reserve 10 Mbps each unless base.ReserveBps
// says otherwise: search traffic is bursty and the paper reserves the
// 90th-percentile rate, far above the mean, so K has leverage even though
// the average query demand is small (the 20 Mbps flows of Fig 2).
func Fig11ScaleFactor(ks []int, bgUtils []float64, base Scenario, workers int) ([]Fig11Row, error) {
	base = netDefaults(base, 10e6)
	// Row order is (background outer, K inner), matching the sequential
	// loop; every cell is an independent simulation.
	nk := len(ks)
	return parallel.Map(len(bgUtils)*nk, workers, func(i int) (Fig11Row, error) {
		bg, k := bgUtils[i/nk], ks[i%nk]
		s := base
		s.BgUtil = bg
		s.ScaleK = float64(k)
		r, err := Run(s)
		if errors.Is(err, ErrInfeasible) {
			return Fig11Row{K: k, BgUtil: bg}, nil
		}
		if err != nil {
			return Fig11Row{}, fmt.Errorf("K=%d bg %.2f: %w", k, bg, err)
		}
		return Fig11Row{
			K:              k,
			BgUtil:         bg,
			P95S:           r.Stats.NetReqLat.Quantile(0.95),
			ActiveSwitches: r.ActiveSwitches,
			Feasible:       true,
		}, nil
	})
}
