package netsim

// The hybrid fluid/packet background engine.
//
// Background CBR elephants dominate the event load of every figure sweep —
// a single 0.3-utilization 1 Gbps flow is ~25k events per simulated second
// — yet on an uncongested route their contribution to link busy-time is
// analytically a constant rate. This file folds such flows into per-link
// rate reservations: while every directed link on a source's route is
// below the knee (Cfg.FluidKneeFrac of capacity), the source emits no
// packet events at all; its bytes accrue analytically into the same
// counters the packet path feeds (flowBytes, per-direction link bytes,
// Offered/CarriedBytes) and foreground packets on shared links transmit at
// the residual capacity C − Σ fluid rates. When the total offered
// background rate on any direction crosses the knee, that direction
// demotes: every source routed across it falls back to the exact
// packet-by-packet loop (same closures, same RNG stream), so contention,
// queueing and drop semantics near saturation are unchanged. Promotion
// back to fluid mode uses a 0.9×knee hysteresis band so a source sitting
// at the threshold does not flap.
//
// Correctness constraints encoded here:
//
//   - Sources are fluid-eligible only when their route exists, is fully
//     active, and crosses no demoted direction. Route or active-set
//     changes (SetRoute/SetActive, including fault-injection masks that
//     arrive through SetActive) reevaluate synchronously, so a source
//     whose route just lost an element starts emitting packets that hit
//     the dead hop and drop — identical failure semantics to packet mode.
//
//   - A demoted-then-promoted-then-demoted source must never end up with
//     two live arm/fire loops: each fluid-managed source tracks its one
//     pending engine event and promotion cancels it.
//
//   - The periodic reevaluation tick reschedules itself only while
//     sources are registered, so Engine.RunAll (the drain used by the
//     availability/overload harnesses, which stop their sources first)
//     terminates.
//
//   - Byte accrual floors to whole bytes and carries the remainder, so
//     cumulative counters never drift by more than a byte per source.

import (
	"math"

	"eprons/internal/flow"
	"eprons/internal/rng"
	"eprons/internal/sim"
	"eprons/internal/topology"
)

// fluidPromoteFrac is the hysteresis band: a demoted direction promotes
// back to fluid service only when its offered rate falls to this fraction
// of the knee.
const fluidPromoteFrac = 0.9

// fluidSource is one StartBackground source managed by the hybrid engine.
type fluidSource struct {
	fid    flow.ID
	rate   func() float64
	stream *rng.Stream
	b      *Background

	// arm/fire are the exact packet-mode closures (same draws, same
	// 10 ms pause re-poll) used whenever the source is demoted.
	arm, fire func()
	// pend is the single outstanding arm/fire event while in packet
	// mode; promotion cancels it so a later demotion cannot leave two
	// live loops.
	pend    sim.EventID
	hasPend bool

	// fluid is true while the source is folded into link reservations.
	fluid bool
	// rBps is the rate reserved at the last reevaluation (the rate the
	// analytic bytes accrue at until the next poll).
	rBps float64
	// rt is the route the reservation was applied to (accrual credits
	// its hop directions); routed reports whether rt is meaningful.
	rt     topology.RouteRef
	routed bool
	// lastAccrue is the sim time analytic bytes were last credited;
	// frac carries the sub-byte remainder.
	lastAccrue float64
	frac       float64
	// eligible is scratch state within one reevaluation pass.
	eligible bool
}

// fluidState is the engine-wide hybrid state, created lazily on the first
// StartBackground under Cfg.FluidBackground.
type fluidState struct {
	srcs  []*fluidSource
	byFid map[flow.ID]*fluidSource
	// offered accumulates per-direction offered background rate during a
	// reevaluation pass (retained scratch, one slot per direction).
	offered []float64
	// tickArmed guards the single periodic reevaluation event; onTick is
	// its one closure.
	tickArmed bool
	onTick    func()
}

// fluidEnabled reports whether the hybrid engine applies to this network.
// Priority-queueing mode stays packet-exact: the QoS ablation compares
// per-packet scheduling disciplines, which a rate reservation cannot model.
func (n *Network) fluidEnabled() bool {
	return n.Cfg.FluidBackground && !n.Cfg.PriorityQueueing
}

// startFluidBackground registers a source with the hybrid engine. The
// source starts in packet mode and the synchronous reevaluation decides —
// against current routes, rates and knee state — whether it folds into the
// fluid reservations immediately.
func (n *Network) startFluidBackground(b *Background, fid flow.ID, rate func() float64, stream *rng.Stream, bits float64) {
	if n.fluid == nil {
		f := &fluidState{
			byFid:   make(map[flow.ID]*fluidSource),
			offered: make([]float64, len(n.links)),
		}
		f.onTick = func() {
			if len(f.srcs) == 0 {
				// All sources stopped: the tick dies so RunAll drains.
				f.tickArmed = false
				return
			}
			n.fluidReevaluate()
			n.eng.After(n.Cfg.FluidUpdateS, f.onTick)
		}
		n.fluid = f
	}
	s := &fluidSource{fid: fid, rate: rate, stream: stream, b: b}
	b.n = n
	b.src = s
	// The exact packet-mode loop (see StartBackground): the only
	// differences are the pending-event bookkeeping and the fluid-mode
	// bail, neither of which perturbs the draw sequence.
	s.arm = func() {
		s.hasPend = false
		if b.stop || s.fluid {
			return
		}
		r := s.rate()
		if r <= 0 {
			s.pend = n.eng.After(10e-3, s.arm)
			s.hasPend = true
			return
		}
		s.pend = n.eng.After(s.stream.Exp(bits/r), s.fire)
		s.hasPend = true
	}
	s.fire = func() {
		s.hasPend = false
		if b.stop || s.fluid {
			return
		}
		if rt, ok := n.lookupRoute(s.fid); ok {
			pk := n.acquirePacket()
			pk.fid = s.fid
			pk.rt = rt
			pk.bytes = int32(n.Cfg.PacketBytes)
			pk.hop = 0
			pk.hi = n.highPrio[s.fid]
			pk.msg = nil
			n.stepPacket(pk)
		}
		s.arm()
	}
	n.fluid.srcs = append(n.fluid.srcs, s)
	n.fluid.byFid[fid] = s
	n.fluidReevaluate()
	if !s.fluid && !s.hasPend {
		// Reevaluation left the source in packet mode: start its loop
		// (first draw identical to the classic packet-mode source).
		s.arm()
	}
	if !n.fluid.tickArmed {
		n.fluid.tickArmed = true
		n.eng.After(n.Cfg.FluidUpdateS, n.fluid.onTick)
	}
}

// stopFluidSource deregisters a stopped source: accrue its analytic bytes
// up to now, cancel any pending packet-mode event, release its reservation
// and let the remaining sources re-settle (a stopped elephant may promote
// a previously demoted direction).
func (n *Network) stopFluidSource(s *fluidSource) {
	f := n.fluid
	if f == nil {
		return
	}
	if s.fluid {
		n.accrueFluid(s, n.eng.Now())
		s.fluid = false
	}
	if s.hasPend {
		n.eng.Cancel(s.pend)
		s.hasPend = false
	}
	for i, t := range f.srcs {
		if t == s {
			f.srcs = append(f.srcs[:i], f.srcs[i+1:]...)
			break
		}
	}
	if f.byFid[s.fid] == s {
		delete(f.byFid, s.fid)
	}
	n.fluidReevaluate()
}

// accrueFluid credits the analytic bytes a fluid source produced since its
// last accrual into exactly the counters the packet path feeds: cumulative
// Offered/CarriedBytes, the controller-polled flowBytes, and the bytes of
// every directed link on its route. Flooring with a carried remainder
// keeps the counters integral without drift.
func (n *Network) accrueFluid(s *fluidSource, now float64) {
	dt := now - s.lastAccrue
	s.lastAccrue = now
	if dt <= 0 || s.rBps <= 0 || !s.routed {
		return
	}
	exact := s.rBps*dt/8 + s.frac
	whole := math.Floor(exact)
	s.frac = exact - whole
	bytes := int64(whole)
	if bytes <= 0 {
		return
	}
	// A fluid source is by construction routed onto a fully active,
	// uncongested path: everything offered is carried.
	n.OfferedBytes += bytes
	n.CarriedBytes += bytes
	n.flowBytes[s.fid] += bytes
	for _, h := range n.arena.Seg(s.rt.Up).Hops {
		n.links[h.Dir].bytes += bytes
	}
	for _, h := range n.arena.Seg(s.rt.Down).Hops {
		n.links[h.Dir].bytes += bytes
	}
}

// fluidAccrueAll brings every fluid source's analytic byte counters up to
// now; the stats readers and ResetStats call it so the controller's
// polled view includes fluid traffic exactly as if it had been packets.
func (n *Network) fluidAccrueAll() {
	f := n.fluid
	if f == nil {
		return
	}
	now := n.eng.Now()
	for _, s := range f.srcs {
		if s.fluid {
			n.accrueFluid(s, now)
		}
	}
}

// fluidReevaluate is the heart of the hybrid engine. It runs synchronously
// on every registration, deregistration, SetActive, SetRoute of a tracked
// flow, and on the periodic tick:
//
//  1. accrue all currently fluid sources at their old rates/routes,
//  2. re-poll every source's rate callback (clamped finite, ≥ 0),
//  3. sum offered background rate per directed link over eligible routes,
//  4. apply knee hysteresis per direction (demote above knee, promote
//     below 0.9×knee),
//  5. decide each source's mode (fluid iff routed, fully active, and no
//     demoted direction en route),
//  6. install the new per-direction reservations, and
//  7. run mode transitions: packet→fluid cancels the pending arm/fire
//     event; fluid→packet re-arms the packet loop.
func (n *Network) fluidReevaluate() {
	f := n.fluid
	if f == nil {
		return
	}
	n.fluidReevals++
	now := n.eng.Now()
	// (1) Settle analytic bytes under the outgoing reservations.
	for _, s := range f.srcs {
		if s.fluid {
			n.accrueFluid(s, now)
		}
	}
	// (2)+(3) Poll rates and sum per-direction offered load.
	for i := range f.offered {
		f.offered[i] = 0
	}
	for _, s := range f.srcs {
		r := s.rate()
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			r = 0
		}
		s.rBps = r
		rt, ok := n.routes[s.fid]
		numOff := 0
		if ok {
			if n.arena.SegEpoch(rt.Up) != n.activeEpoch {
				n.arena.Revalidate(rt.Up, n.active, n.activeEpoch)
			}
			if n.arena.SegEpoch(rt.Down) != n.activeEpoch {
				n.arena.Revalidate(rt.Down, n.active, n.activeEpoch)
			}
			numOff = n.arena.SegNumOff(rt.Up) + n.arena.SegNumOff(rt.Down)
		}
		s.rt, s.routed = rt, ok
		s.eligible = ok && rt.NumHops() > 0 && numOff == 0 && r > 0
		if s.eligible {
			for _, h := range n.arena.Seg(rt.Up).Hops {
				f.offered[h.Dir] += r
			}
			for _, h := range n.arena.Seg(rt.Down).Hops {
				f.offered[h.Dir] += r
			}
		}
	}
	// (4) Knee hysteresis per direction.
	for di := range n.links {
		ls := &n.links[di]
		knee := n.Cfg.FluidKneeFrac * n.dirCap[di]
		if !ls.demoted {
			if f.offered[di] > knee {
				ls.demoted = true
				n.FluidDemotions++
			}
		} else if f.offered[di] <= fluidPromoteFrac*knee {
			ls.demoted = false
			n.FluidPromotions++
		}
	}
	// (5)+(6) Decide modes and install reservations.
	for di := range n.links {
		n.links[di].fluidBps = 0
	}
	for _, s := range f.srcs {
		want := s.eligible
		if want {
			up, down := n.arena.Seg(s.rt.Up).Hops, n.arena.Seg(s.rt.Down).Hops
			for _, h := range up {
				if n.links[h.Dir].demoted {
					want = false
					break
				}
			}
			if want {
				for _, h := range down {
					if n.links[h.Dir].demoted {
						want = false
						break
					}
				}
			}
			if want {
				for _, h := range up {
					n.links[h.Dir].fluidBps += s.rBps
				}
				for _, h := range down {
					n.links[h.Dir].fluidBps += s.rBps
				}
			}
		}
		// (7) Transitions.
		switch {
		case want && !s.fluid:
			s.fluid = true
			s.lastAccrue = now
			s.frac = 0
			if s.hasPend {
				n.eng.Cancel(s.pend)
				s.hasPend = false
			}
		case !want && s.fluid:
			s.fluid = false
			if !s.b.stop && !s.hasPend {
				s.arm()
			}
		case want:
			// Staying fluid: accrual already settled at the old rate;
			// future bytes accrue at the freshly polled rBps.
			s.lastAccrue = now
		}
	}
}
