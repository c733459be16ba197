package netsim

import (
	"testing"
	"testing/quick"

	"eprons/internal/fattree"
	"eprons/internal/rng"
	"eprons/internal/sim"
	"eprons/internal/topology"
)

// TestPerFlowFIFO: messages sent back-to-back on one flow are delivered in
// send order (FIFO links + fixed route imply no reordering).
func TestPerFlowFIFO(t *testing.T) {
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	n := New(eng, ft.Graph, DefaultConfig())
	if err := n.SetRoute(1, ft.Paths(ft.Hosts[0], ft.Hosts[12])[0]); err != nil {
		t.Fatal(err)
	}
	var got []int
	stream := rng.New(4)
	for i := 0; i < 50; i++ {
		i := i
		at := eng.Now()
		_ = at
		size := 500 + stream.Intn(6000)
		n.SendMessage(1, size, func(float64) { got = append(got, i) }, nil)
	}
	eng.RunAll()
	if len(got) != 50 {
		t.Fatalf("delivered %d/50", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("reordered delivery: %v", got)
		}
	}
}

func TestZeroSizeMessageDelivers(t *testing.T) {
	g, h0, h1 := line(t)
	eng := sim.New()
	n := New(eng, g, DefaultConfig())
	if err := n.SetRoute(1, topology.Path{h0, 1, h1}); err != nil {
		t.Fatal(err)
	}
	delivered := false
	n.SendMessage(1, 0, func(float64) { delivered = true }, nil)
	eng.RunAll()
	if !delivered {
		t.Fatal("zero-size message lost")
	}
}

func TestUtilizationIsPerDirection(t *testing.T) {
	g, h0, h1 := line(t)
	eng := sim.New()
	n := New(eng, g, DefaultConfig())
	// Forward direction only.
	n.SetRoute(1, topology.Path{h0, 1, h1})
	b := n.StartBackground(1, func() float64 { return 400e6 }, rng.New(2))
	eng.Run(1)
	b.Stop()
	// LinkUtilizationInto reports the busier direction: ~0.4, not 0.8 (which
	// double-counting directions would give) and not 0.2 (averaging).
	u := n.LinkUtilizationInto(nil, 1)
	lid, _ := g.FindLink(h0, 1)
	if u[lid] < 0.33 || u[lid] > 0.47 {
		t.Fatalf("utilization %.3f, want ~0.40", u[lid])
	}
}

func TestFlowRates(t *testing.T) {
	g, h0, h1 := line(t)
	eng := sim.New()
	n := New(eng, g, DefaultConfig())
	n.SetRoute(7, topology.Path{h0, 1, h1})
	b := n.StartBackground(7, func() float64 { return 250e6 }, rng.New(9))
	eng.Run(2)
	b.Stop()
	rates := n.FlowRatesInto(nil, 2)
	if r := rates[7]; r < 200e6 || r > 300e6 {
		t.Fatalf("flow rate %.0f, want ~250e6", r)
	}
	if len(n.FlowRatesInto(nil, 0)) != 0 {
		t.Fatal("zero window must return empty")
	}
	n.ResetStats()
	if len(n.FlowRatesInto(nil, 1)) != 0 {
		t.Fatal("reset did not clear flow counters")
	}
}

// Property: total delivered bytes equal total sent bytes on an
// uncontended active route (conservation).
func TestQuickByteConservation(t *testing.T) {
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := func(sizes []uint16) bool {
		eng := sim.New()
		n := New(eng, ft.Graph, DefaultConfig())
		if err := n.SetRoute(1, ft.Paths(ft.Hosts[0], ft.Hosts[5])[0]); err != nil {
			return false
		}
		sent := 0
		delivered := 0
		for _, s16 := range sizes {
			size := int(s16)%8000 + 1
			sent += size
			n.SendMessage(1, size, func(float64) { delivered += size }, nil)
		}
		eng.RunAll()
		return delivered == sent && n.Dropped == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFiniteBufferTailDrop(t *testing.T) {
	// Overload a 1 Gbps egress from a 100 Gbps ingress with a tiny buffer:
	// most packets must tail-drop; with infinite buffers none do.
	build := func(limit int) (*Network, *sim.Engine) {
		g := topology.NewGraph()
		h0 := g.AddNode("h0", topology.Host, 0)
		sw := g.AddNode("sw", topology.EdgeSwitch, 36)
		h1 := g.AddNode("h1", topology.Host, 0)
		if _, err := g.AddLink(h0, sw, 100e9, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := g.AddLink(sw, h1, 1e9, 0); err != nil {
			t.Fatal(err)
		}
		eng := sim.New()
		cfg := DefaultConfig()
		cfg.QueueLimitBytes = limit
		n := New(eng, g, cfg)
		if err := n.SetRoute(1, topology.Path{h0, sw, h1}); err != nil {
			t.Fatal(err)
		}
		return n, eng
	}

	n, eng := build(10 * 1500)
	bg := n.StartBackground(1, func() float64 { return 2e9 }, rng.New(3)) // 2x overload
	eng.Run(0.2)
	bg.Stop()
	eng.Run(0.3)
	if n.TailDrops == 0 {
		t.Fatal("no tail drops under 2x overload with a 10-packet buffer")
	}
	// Delivered rate is capped at link capacity: forwarded bytes on the
	// egress cannot exceed capacity*time.
	egress, _ := n.Graph().FindLink(1, 2)
	bytes := n.LinkBytesInto(nil)[egress]
	if float64(bytes) > 1e9/8*0.55 {
		t.Fatalf("egress moved %d bytes, above capacity", bytes)
	}

	inf, engInf := build(0)
	bgi := inf.StartBackground(1, func() float64 { return 2e9 }, rng.New(3))
	engInf.Run(0.2)
	bgi.Stop()
	engInf.Run(0.3)
	if inf.TailDrops != 0 {
		t.Fatalf("infinite buffer dropped %d packets", inf.TailDrops)
	}
}
