package dvfs

import (
	"math"
	"math/rand"
	"testing"

	"eprons/internal/dist"
	"eprons/internal/power"
	"eprons/internal/server"
	"eprons/internal/workload"
)

// exactDecision is the reference for decide: the same binary search over
// the exact metric, on a freshly materialized remaining-work prefix. queue
// must already be in the order decide searched it (decide sorts in place).
func exactDecision(p *ModelPolicy, now float64, cur *server.Request, work float64, queue []*server.Request) (f float64, saturated bool) {
	if cur == nil && len(queue) == 0 {
		return power.FMinGHz, false
	}
	var prefix *dist.Discrete
	if cur != nil {
		prefix = p.m.Base.Remaining(work)
	}
	lo, hi := 0, len(p.grid)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.metric(p.grid[mid], now, cur, queue, prefix) <= p.TargetVP {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(p.grid) {
		return p.grid[len(p.grid)-1], true
	}
	return p.grid[lo], false
}

// fastTestModels returns the base distributions the differential tests
// draw from: the realistic service distribution, random short lattices on
// assorted steps (zeros included), point masses, and untrimmed
// distributions whose last few lattice points carry only a few MassEps,
// so conditioning on the work done hits the thin-tail and trimming paths.
func fastTestModels(tb testing.TB) []*Model {
	tb.Helper()
	r := rand.New(rand.NewSource(42))
	real, err := workload.ServiceDist(workload.DefaultServiceConfig())
	if err != nil {
		tb.Fatal(err)
	}
	bases := []*dist.Discrete{real, dist.Point(1e-4, 4e-3), dist.Point(1e-3, 0)}
	steps := []float64{1e-4, 1e-3, 3.7e-4, 0.1}
	for i := 0; i < 24; i++ {
		p := make([]float64, 1+r.Intn(64))
		for j := range p {
			if r.Intn(10) >= 3 {
				p[j] = r.Float64()
			}
		}
		p[len(p)-1] += 0.01
		step := steps[r.Intn(len(steps))]
		if i%3 == 0 {
			// An untrimmed base whose last points carry (0.1–3)·MassEps:
			// late work leaves a conditioning tail near Remaining's
			// "finished" cut-off, and early work a trim that drops mass.
			total := 0.0
			for _, v := range p {
				total += v
			}
			for j := range p {
				p[j] /= total
			}
			for n := 1 + r.Intn(5); n > 0; n-- {
				p = append(p, (0.1+2.9*r.Float64())*dist.MassEps)
			}
			bases = append(bases, &dist.Discrete{Step: step, P: p})
			continue
		}
		d, err := dist.New(step, p)
		if err != nil {
			tb.Fatal(err)
		}
		bases = append(bases, d)
	}
	models := make([]*Model, len(bases))
	for i, b := range bases {
		alpha := []float64{0.9, 1, 0.5}[i%3]
		m, err := NewModel(b, alpha, power.FMaxGHz)
		if err != nil {
			tb.Fatal(err)
		}
		models[i] = m
	}
	return models
}

// policyVariants returns every ModelPolicy variant over m: EPRONS-Server,
// Rubik, Rubik+ and the four {max,avg} × {FIFO,EDF} ablation policies.
func policyVariants(m *Model) []*ModelPolicy {
	return []*ModelPolicy{
		NewEPRONSServer(m, 0.05),
		NewRubik(m, 0.05),
		NewRubikPlus(m, 0.05),
		NewModelPolicy("max-vp fifo", m, 0.05, MaxVP, true, false),
		NewModelPolicy("max-vp edf", m, 0.05, MaxVP, true, true),
		NewModelPolicy("avg-vp fifo", m, 0.05, AvgVP, true, false),
		NewModelPolicy("avg-vp edf", m, 0.05, AvgVP, true, true),
	}
}

// decisionRig draws random decision states over a fixed set of models and
// policies, and checks each decision against exactDecision.
type decisionRig struct {
	models   [][]*ModelPolicy
	cur      server.Request
	reqs     [40]server.Request
	queue    []*server.Request
	agreeing int
	saturate int
}

func newDecisionRig(tb testing.TB) *decisionRig {
	rig := &decisionRig{}
	for _, m := range fastTestModels(tb) {
		rig.models = append(rig.models, policyVariants(m))
	}
	return rig
}

// relDeadline draws a deadline offset from now for the request at queue
// position pos (0 = in service), whose base distribution has the given
// mean. A share special of them is special: on
// the lattice at a grid frequency or at fmax, just under a lattice point
// (inside the +1e-9 floor nudge), negative, or past any support. The rest
// land in the range the request's expected work makes plausible.
func relDeadline(r *rand.Rand, p *ModelPolicy, mean float64, pos int, special float64) float64 {
	st := p.m.Base.Step
	horizon := float64(pos+1) * (mean + st) * 3
	if r.Float64() >= special {
		return (0.2 + 1.3*r.Float64()) * horizon
	}
	lattice := float64(r.Intn(int(horizon/st) + 2))
	switch r.Intn(6) {
	case 0:
		return lattice * st * p.m.Stretch(p.grid[r.Intn(len(p.grid))])
	case 1:
		return lattice * st
	case 2:
		return (lattice - 1e-9) * st * p.m.Stretch(p.grid[r.Intn(len(p.grid))])
	case 3:
		return -r.Float64() * horizon
	case 4:
		return []float64{1e300, math.Inf(1), -math.Inf(1), 1e15}[r.Intn(4)]
	}
	return (lattice + 1e-12*float64(r.Intn(3)-1)) * st
}

// workDone draws the in-service request's work done: none, on the
// lattice, anywhere in the support, past it, or in its last few points
// where the conditioning tail is thin.
func workDone(r *rand.Rand, d *dist.Discrete) float64 {
	n := len(d.P)
	switch r.Intn(8) {
	case 0:
		return -r.Float64() * d.Step * float64(r.Intn(2))
	case 1:
		return float64(r.Intn(n+2)) * d.Step
	case 2:
		return float64(n) * d.Step * (1 + 10*r.Float64())
	case 3:
		return (float64(n-1-r.Intn(min(n, 6))) + r.Float64()) * d.Step
	case 4:
		return []float64{math.Inf(1), 1e300, 1e16}[r.Intn(3)]
	}
	return r.Float64() * float64(n+1) * d.Step
}

// check draws one state from r, decides it with the policy and with the
// exact reference, and reports a mismatch.
func (rig *decisionRig) check(tb testing.TB, r *rand.Rand) {
	tb.Helper()
	variants := rig.models[r.Intn(len(rig.models))]
	p := variants[r.Intn(len(variants))]
	p.TargetVP = []float64{0.05, 0.05, 0.01, 0.2, 0.5, 0, 1}[r.Intn(7)]
	now := 0.0
	if r.Intn(3) > 0 {
		now = 100 * r.Float64()
	}
	depth := r.Intn(1 + r.Intn(len(rig.reqs)+1)) // 0–40, shallow ones likelier
	special := []float64{0, 0.02, 0.1, 0.5}[r.Intn(4)]
	mean := p.m.Base.Mean()
	fill := func(req *server.Request, pos int) {
		*req = server.Request{ID: int64(pos), Arrival: now}
		req.ServerDeadline = now + relDeadline(r, p, mean, pos, special)
		req.SlackDeadline = req.ServerDeadline
		if r.Intn(2) == 0 {
			req.SlackDeadline = now + relDeadline(r, p, mean, pos, special)
		}
	}
	var cur *server.Request
	work := 0.0
	if r.Intn(5) > 0 {
		cur = &rig.cur
		fill(cur, 0)
		work = workDone(r, p.m.Base)
	}
	rig.queue = rig.queue[:0]
	for i := 0; i < depth; i++ {
		fill(&rig.reqs[i], i+1)
		rig.queue = append(rig.queue, &rig.reqs[i])
	}
	if r.Intn(8) == 0 {
		// Put the target on the exact metric at one grid frequency, or one
		// ulp off it: only the band keeps such a verdict exact. decide
		// EDF-sorts the queue first, as the metric is order-dependent.
		p.decide(now, cur, work, rig.queue)
		var prefix *dist.Discrete
		if cur != nil {
			prefix = p.m.Base.Remaining(work)
		}
		v := p.metric(p.grid[r.Intn(len(p.grid))], now, cur, rig.queue, prefix)
		p.TargetVP = math.Nextafter(v, v+float64(r.Intn(3)-1))
	}
	sat := p.SaturationCount()
	got := p.decide(now, cur, work, rig.queue)
	gotSat := p.SaturationCount() - sat
	want, wantSat := exactDecision(p, now, cur, work, rig.queue)
	if math.Float64bits(got) != math.Float64bits(want) || (gotSat == 1) != wantSat || gotSat > 1 {
		tb.Fatalf("%s (target %g, step %g, now %g, work %g, queue %d, cur %v): decided %g (saturations +%d), exact %g (saturated %v)",
			p.Name(), p.TargetVP, p.m.Base.Step, now, work, len(rig.queue), cur != nil, got, gotSat, want, wantSat)
	}
	rig.agreeing++
	if wantSat {
		rig.saturate++
	}
}

func probeTotals(rig *decisionRig) (fast, exact, terms int64) {
	for _, vs := range rig.models {
		for _, p := range vs {
			fast += p.fastProbes
			exact += p.exactProbes
			terms += p.exactTerms
		}
	}
	return fast, exact, terms
}

// TestFastDecisionMatchesExact pins the error-banded fast metric to the
// exact path: over a million random states, every chosen frequency and
// every saturation equals the exact binary search's, for every policy
// variant, across idle and busy cores, work done on and off the lattice
// and past the support, thin tails, queue depths 0–40, and deadlines that
// are lattice-aligned, just under a lattice point, negative or infinite.
func TestFastDecisionMatchesExact(t *testing.T) {
	states := 1_000_000
	if testing.Short() {
		states = 50_000
	}
	rig := newDecisionRig(t)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < states; i++ {
		rig.check(t, r)
	}
	fast, exact, terms := probeTotals(rig)
	t.Logf("%d decisions (%d saturated); busy-core probes: %d fast, %d exact; %d queued VPs from the exact sum",
		rig.agreeing, rig.saturate, fast, exact, terms)
	if fast == 0 || exact == 0 || terms == 0 || rig.saturate == 0 || rig.saturate == rig.agreeing {
		t.Fatalf("states do not exercise every path and both outcomes: fast %d, exact %d, exact terms %d, saturated %d of %d",
			fast, exact, terms, rig.saturate, rig.agreeing)
	}
}

// FuzzDVFSDecision draws decision states from a fuzzed seed and checks
// each against the exact reference.
func FuzzDVFSDecision(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 1 << 40} {
		f.Add(seed)
	}
	rig := newDecisionRig(f)
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 16; i++ {
			rig.check(t, r)
		}
	})
}

// TestFastVPWithinBand checks the band itself, not just the verdicts it
// protects: wherever the fast VP and CCDF answer, they are within band of
// the exact values on the materialized prefix, deadlines on and just off
// the lattice included.
func TestFastVPWithinBand(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, m := range fastTestModels(t) {
		p := NewEPRONSServer(m, 0.05)
		mean := m.Base.Mean()
		for trial := 0; trial < 20000; trial++ {
			work := workDone(r, m.Base)
			w, ok := m.remaining(work)
			if !ok {
				continue
			}
			prefix := m.Base.Remaining(work)
			k := 1 + r.Intn(6)
			now := 100 * r.Float64()
			s := m.Stretch(p.grid[r.Intn(len(p.grid))])
			omega := (now + relDeadline(r, p, mean, k, 0.5) - now) / s
			if d := math.Abs(m.fastCCDF(w, omega) - prefix.CCDF(omega)); d > m.band {
				t.Fatalf("CCDF off by %g > band %g (work %g, omega %g)", d, m.band, work, omega)
			}
			got, ok := m.fastVP(w, k, omega)
			if !ok {
				continue
			}
			if d := math.Abs(got - m.VP(prefix, k, omega)); d > m.band {
				t.Fatalf("VP off by %g > band %g (work %g, k %d, omega %g)", d, m.band, work, k, omega)
			}
		}
	}
}

// The model's above table doubles as Base's tail table: its shifted view
// must equal tailTable bit for bit.
func TestAboveIsBaseTailTable(t *testing.T) {
	for _, m := range fastTestModels(t) {
		want := tailTable(m.Base)
		got := m.tails[1]
		if len(got) != len(want) {
			t.Fatalf("tail table length %d, want %d", len(got), len(want))
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("tails[1][%d] = %v, tailTable %v", j, got[j], want[j])
			}
		}
	}
}
