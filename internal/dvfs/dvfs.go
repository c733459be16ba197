// Package dvfs implements the per-request frequency-selection policies the
// paper evaluates (§III, §V-B2):
//
//   - EPRONS-Server: pick the lowest frequency whose AVERAGE deadline
//     violation probability (VP) over all queued requests meets the SLA
//     (95th-percentile tail ⇒ 5% VP budget), with EDF ordering and
//     network slack folded into each request's deadline. The paper's
//     contribution.
//   - Rubik: the prior state of the art — lowest frequency whose MAXIMUM
//     per-request VP meets the SLA, fixed server-budget deadlines only.
//   - Rubik+: Rubik extended with the measured per-request network slack
//     (the paper's fair-comparison variant).
//   - TimeTrader: a 5-second feedback loop stepping frequency against the
//     observed tail latency.
//   - MaxFreq: no power management.
//
// The statistical machinery follows §III-B/C: an "equivalent request" for
// the i-th queued request is the convolution of the service distribution of
// everything ahead of it; its VP at frequency f is the CCDF of that
// convolution at ω(D) = (D − now)/s(f) base-seconds, where s(f) is the
// DVFS stretch factor. Convolution powers of the base distribution are
// precomputed once and reused (the paper's FFT-and-reuse optimization).
//
// A decision binary-searches the frequency grid, and each probe evaluates
// the metric from the in-service request's remaining work read in place as
// a scaled window of the base distribution: one table lookup for the
// in-service request and, per queued request, one dot product over the
// lattice points that fit before its deadline. That value carries a proven
// absolute error band. Only a probe whose value lands inside the band
// around the VP budget materializes the remaining work and runs the exact
// sum; so does a single queued request whose deadline sits within rounding
// of a lattice-index boundary. The band makes every probe's verdict, so
// every chosen frequency, equal to the exact path's (DESIGN.md,
// "Error-banded DVFS decisions").
package dvfs

import (
	"fmt"
	"math"
	"slices"

	"eprons/internal/dist"
	"eprons/internal/metrics"
	"eprons/internal/power"
	"eprons/internal/server"
)

// Model holds the base service-time distribution (at fmax) and cached
// convolution powers with their CCDF tables.
type Model struct {
	Base  *dist.Discrete
	Alpha float64
	FMax  float64

	selfConv []*dist.Discrete // selfConv[i] = i-fold convolution of Base; [0] unused
	tails    [][]float64      // tails[i][j] = P(selfConv[i] > j·step)
	above    []float64        // above[j] = P(Base ≥ j·step), len(Base.P)+1 entries
	// band bounds |fast − exact| for one VP value (see vpBand).
	band float64
}

// NewModel builds a model around the base distribution.
func NewModel(base *dist.Discrete, alpha, fmax float64) (*Model, error) {
	if base == nil {
		return nil, fmt.Errorf("dvfs: nil base distribution")
	}
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("dvfs: alpha %g out of [0,1]", alpha)
	}
	if fmax <= 0 {
		return nil, fmt.Errorf("dvfs: fmax %g", fmax)
	}
	m := &Model{Base: base, Alpha: alpha, FMax: fmax}
	m.selfConv = []*dist.Discrete{nil, base.Clone()}
	// above[1:] sums exactly as tailTable(base) does, so it is Base's tail
	// table.
	m.above = make([]float64, len(base.P)+1)
	for j := len(base.P) - 1; j >= 0; j-- {
		m.above[j] = m.above[j+1] + base.P[j]
	}
	m.tails = [][]float64{nil, m.above[1:]}
	m.band = vpBand(len(base.P))
	return m, nil
}

// epsilon is the float64 unit roundoff, 2⁻⁵³.
const epsilon = 0x1p-53

// vpBand is the absolute error band of a fast VP over a base distribution
// of n lattice points: the mass the exact prefix's trim can drop, and then
// renormalize away, (n·MassEps each), plus the rounding of the two sums
// and of the tail scale (a few n·ε), doubled for margin. DESIGN.md derives
// it.
func vpBand(n int) float64 {
	return 2 * float64(n) * (2*dist.MassEps + 8*epsilon)
}

func tailTable(d *dist.Discrete) []float64 {
	t := make([]float64, len(d.P))
	acc := 0.0
	for j := len(d.P) - 1; j >= 0; j-- {
		t[j] = acc // P(X > j·step) excludes the mass at j
		acc += d.P[j]
	}
	return t
}

// tailAt evaluates a precomputed tail table at x (same convention as
// dist.CCDF, NaN and +Inf included: they lie beyond the support).
func tailAt(step float64, tails []float64, x float64) float64 {
	if x < 0 {
		return 1
	}
	idx := dist.LatticeIndex(x, step, len(tails))
	if idx >= len(tails) {
		return 0
	}
	return tails[idx]
}

// ensure extends the cached convolution powers to depth k.
func (m *Model) ensure(k int) {
	for len(m.selfConv) <= k {
		next := m.selfConv[len(m.selfConv)-1].Convolve(m.Base)
		m.selfConv = append(m.selfConv, next)
		m.tails = append(m.tails, tailTable(next))
	}
}

// TailCCDF returns P(S₁+…+S_k > x) for k i.i.d. base service times.
func (m *Model) TailCCDF(k int, x float64) float64 {
	if k <= 0 {
		if x < 0 {
			return 1
		}
		return 0
	}
	m.ensure(k)
	return tailAt(m.Base.Step, m.tails[k], x)
}

// VP returns P(prefix + S₁+…+S_k > omega) where prefix is the
// remaining-work distribution of the in-service request (nil for an idle
// core). This is the violation probability of the k-th queued "equivalent
// request" at the work bound omega (in base seconds).
func (m *Model) VP(prefix *dist.Discrete, k int, omega float64) float64 {
	if prefix == nil {
		return m.TailCCDF(k, omega)
	}
	if k <= 0 {
		return prefix.CCDF(omega)
	}
	m.ensure(k)
	tails := m.tails[k]
	step := m.Base.Step
	p := 0.0
	for i, mass := range prefix.P {
		if mass == 0 {
			continue
		}
		p += mass * tailAt(step, tails, termBound(omega, i, step))
	}
	if p > 1 {
		p = 1
	}
	return p
}

// window is the in-service request's remaining-work distribution read in
// place from Base.P: mass scale·P[off+j] at lattice point j, for j ≥ lo.
// It stands for Base.Remaining(w) without materializing it.
type window struct {
	off, lo int
	scale   float64
}

// remaining returns Base.Remaining(w) as a window, or ok=false when the
// exact prefix is a point mass or the conditioning tail is within a few
// MassEps of Remaining's "finished" cut-off; the exact RemainingInto then
// serves the whole decision.
func (m *Model) remaining(w float64) (window, bool) {
	if w <= 0 {
		return window{scale: 1}, true
	}
	n := len(m.Base.P)
	k := dist.LatticeIndex(w, m.Base.Step, n-1)
	if k+1 >= n || m.above[k+1] < 4*dist.MassEps {
		return window{}, false
	}
	// Remaining shifts the conditioned mass by one lattice point: P[k+j]
	// sits at j ≥ 1.
	return window{off: k, lo: 1, scale: 1 / m.above[k+1]}, true
}

// beyond returns the window's mass strictly above lattice point j.
func (m *Model) beyond(w window, j int) float64 {
	i := w.off + max(j+1, w.lo)
	if i >= len(m.above) {
		return 0
	}
	return w.scale * m.above[i]
}

// fastCCDF is prefix.CCDF(omega) for the window's prefix, within band.
func (m *Model) fastCCDF(w window, omega float64) float64 {
	if omega < 0 {
		return 1
	}
	return m.beyond(w, dist.LatticeIndex(omega, m.Base.Step, len(m.Base.P)))
}

// fastVP is VP(prefix, k, omega) for the window's prefix, within band.
// The exact sum reads term j's bound x = ω − j·step as tail 1 when x < 0
// and as lattice index ⌊x/step + 1e-9⌋ otherwise. With u = ω/step and
// J = ⌊u + 1e-9⌋, that index is J − j for every term as long as u + 1e-9
// sits more than a rounding guard away from an integer; only term J's sign
// can then be in doubt, and it is settled with the exact sum's own
// arithmetic. Otherwise ok is false and the caller takes the exact VP.
func (m *Model) fastVP(w window, k int, omega float64) (vp float64, ok bool) {
	m.ensure(k)
	tails := m.tails[k]
	n := len(m.Base.P)
	step := m.Base.Step
	u := omega / step
	switch {
	case !(u < float64(n+len(tails))):
		// Every bound is past the support (NaN included, as in tailAt).
		return 0, true
	case u < 0:
		// Every bound is negative.
		return math.Min(m.beyond(w, -1), 1), true
	}
	v := u + 1e-9
	J := int(v)
	guard := 8 * epsilon * (u + float64(n) + 1)
	if v-float64(J) < guard || float64(J+1)-v < guard {
		return 0, false
	}
	last := J // the last term whose bound is non-negative
	if d := u - float64(J); d < guard && (d <= -guard || termBound(omega, J, step) < 0) {
		last = J - 1
	}
	// Terms with J−j inside the tail table and P[off+j] inside the base.
	lo := max(w.lo, J-len(tails)+1)
	hi := min(last, n-1-w.off)
	dot := 0.0
	if lo <= hi {
		dot = dotRev(m.Base.P[w.off+lo:w.off+hi+1], tails, J-lo)
	}
	return math.Min(w.scale*dot+m.beyond(w, last), 1), true
}

// termBound is the work bound ω − j·step of the j-th prefix term of VP's
// exact sum; the fast path evaluates a doubtful term with this same
// arithmetic.
func termBound(omega float64, j int, step float64) float64 {
	return omega - float64(j)*step
}

// dotRev returns Σ a[i]·t[top−i] over i < len(a), summed in four
// independent accumulators.
func dotRev(a, t []float64, top int) float64 {
	t = t[top-len(a)+1 : top+1]
	var s0, s1, s2, s3 float64
	i, r := 0, len(t)-1
	for ; i+3 < len(a); i, r = i+4, r-4 {
		s0 += a[i] * t[r]
		s1 += a[i+1] * t[r-1]
		s2 += a[i+2] * t[r-2]
		s3 += a[i+3] * t[r-3]
	}
	for ; i < len(a); i, r = i+1, r-1 {
		s0 += a[i] * t[r]
	}
	return (s0 + s1) + (s2 + s3)
}

// Stretch returns s(f) for the model's α and fmax.
func (m *Model) Stretch(f float64) float64 {
	return server.Stretch(m.Alpha, m.FMax, f)
}

// Aggregate selects how per-request VPs combine into the decision metric.
type Aggregate int

// Aggregation modes.
const (
	// MaxVP is the conservative prior-work rule (Rubik): every request
	// individually meets the SLA.
	MaxVP Aggregate = iota
	// AvgVP is the EPRONS-Server rule: the average VP — and therefore the
	// overall tail — meets the SLA, letting some requests exceed it when
	// others are comfortably early.
	AvgVP
)

// ModelPolicy is the statistical-model family (EPRONS-Server, Rubik,
// Rubik+), differing in aggregation, slack use and queue ordering.
type ModelPolicy struct {
	name string
	m    *Model
	// TargetVP is the SLA miss budget (0.05 for a 95th-percentile SLA).
	TargetVP float64
	Agg      Aggregate
	UseSlack bool
	EDF      bool
	grid     []float64
	// decisions counts OnDecision calls (introspection for tests).
	decisions int64
	// saturated counts infeasible decisions: even fmax failed the VP
	// budget, so the returned frequency is a best effort, not a guarantee.
	// Silently pinning fmax used to be indistinguishable from a healthy
	// fmax choice; the counter is the overload control plane's signal.
	saturated int64
	// lastInfeasible mirrors the most recent decision's feasibility.
	lastInfeasible bool
	// fastProbes and exactProbes count the busy-core probes decided by the
	// error-banded fast metric and by the exact one; exactTerms counts the
	// queued requests whose VP the fast metric took from the exact sum
	// (introspection for tests).
	fastProbes, exactProbes, exactTerms int64
	// Per-decision state of a busy core: the in-service request's work
	// done, its remaining work as a window of Base (valid when fast), and
	// prefix, the same distribution materialized into scratch once an
	// exact probe needs it (nil until then).
	work   float64
	win    window
	fast   bool
	prefix *dist.Discrete
	// scratch holds the materialized remaining-work distribution between
	// decisions. Policies are per-core and single-threaded within a
	// simulation, and the prefix never outlives the decision, so reusing
	// one buffer keeps the exact path allocation-free
	// (dist.RemainingInto keeps the arithmetic bit-identical).
	scratch dist.Discrete
}

// NewEPRONSServer returns the paper's policy: average VP, slack-aware, EDF.
func NewEPRONSServer(m *Model, targetVP float64) *ModelPolicy {
	return &ModelPolicy{name: "eprons-server", m: m, TargetVP: targetVP, Agg: AvgVP, UseSlack: true, EDF: true, grid: power.FreqGrid()}
}

// NewRubik returns the Rubik baseline: max VP, server budget only.
func NewRubik(m *Model, targetVP float64) *ModelPolicy {
	return &ModelPolicy{name: "rubik", m: m, TargetVP: targetVP, Agg: MaxVP, UseSlack: false, EDF: false, grid: power.FreqGrid()}
}

// NewRubikPlus returns the network-slack-aware Rubik variant.
func NewRubikPlus(m *Model, targetVP float64) *ModelPolicy {
	return &ModelPolicy{name: "rubik+", m: m, TargetVP: targetVP, Agg: MaxVP, UseSlack: true, EDF: false, grid: power.FreqGrid()}
}

// NewModelPolicy builds a custom variant (used by ablation benches).
func NewModelPolicy(name string, m *Model, targetVP float64, agg Aggregate, useSlack, edf bool) *ModelPolicy {
	return &ModelPolicy{name: name, m: m, TargetVP: targetVP, Agg: agg, UseSlack: useSlack, EDF: edf, grid: power.FreqGrid()}
}

// Name implements server.Policy.
func (p *ModelPolicy) Name() string { return p.name }

func (p *ModelPolicy) deadline(r *server.Request) float64 {
	if p.UseSlack {
		return r.SlackDeadline
	}
	return r.ServerDeadline
}

// OnDecision implements server.Policy.
func (p *ModelPolicy) OnDecision(now float64, cur *server.Request, queue []*server.Request) float64 {
	work := 0.0
	if cur != nil {
		work = cur.WorkDoneBase()
	}
	return p.decide(now, cur, work, queue)
}

// decide is OnDecision with the in-service request's base-seconds of
// service passed as work.
func (p *ModelPolicy) decide(now float64, cur *server.Request, work float64, queue []*server.Request) float64 {
	p.decisions++
	if cur == nil && len(queue) == 0 {
		return power.FMinGHz
	}
	if p.EDF && len(queue) > 1 {
		// Stable sort on deadlines; SortStableFunc matches the historical
		// sort.SliceStable permutation without its per-call reflection
		// allocations.
		slices.SortStableFunc(queue, func(a, b *server.Request) int {
			da, db := p.deadline(a), p.deadline(b)
			switch {
			case da < db:
				return -1
			case da > db:
				return 1
			}
			return 0
		})
	}
	p.work, p.prefix, p.fast = work, nil, false
	if cur != nil {
		p.win, p.fast = p.m.remaining(work)
	}

	// VP is non-increasing in frequency: binary search the grid for the
	// slowest frequency meeting the target (§III-C's binary search). The
	// probe sequence mirrors sort.Search; inlining it lets the metric be a
	// method call instead of two escaping closures per decision.
	lo, hi := 0, len(p.grid)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.meets(p.grid[mid], now, cur, queue) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(p.grid) {
		// Infeasible: no frequency — not even fmax — meets the VP budget.
		// Record the saturation instead of failing silently (the overload
		// control plane reads SaturationCount), then run flat out.
		p.saturated++
		p.lastInfeasible = true
		return p.grid[len(p.grid)-1]
	}
	p.lastInfeasible = false
	return p.grid[lo]
}

// SaturationCount reports how many decisions were infeasible — the SLA was
// unmeetable even at fmax. It implements server.SaturationReporter.
func (p *ModelPolicy) SaturationCount() int64 { return p.saturated }

// LastInfeasible reports whether the most recent decision was infeasible.
func (p *ModelPolicy) LastInfeasible() bool { return p.lastInfeasible }

// meets reports whether the decision metric at f is within TargetVP. On a
// busy core the fast metric decides whenever it lies outside the error
// band around TargetVP: the exact metric is then on the same side, so the
// verdict is the exact one. Inside the band the exact metric decides; so
// it does on an idle core, where it is already O(queue) table lookups.
func (p *ModelPolicy) meets(f, now float64, cur *server.Request, queue []*server.Request) bool {
	if cur == nil {
		return p.metric(f, now, nil, queue, nil) <= p.TargetVP
	}
	if p.fast {
		v := p.fastMetric(f, now, cur, queue)
		// Both metrics average up to len(queue)+1 VPs, each sum rounding
		// by at most that many ulps.
		band := p.m.band + 4*float64(len(queue)+1)*epsilon
		if math.Abs(v-p.TargetVP) > band {
			p.fastProbes++
			return v <= p.TargetVP
		}
	}
	p.exactProbes++
	return p.metric(f, now, cur, queue, p.exactPrefix()) <= p.TargetVP
}

// exactPrefix returns the in-service request's remaining-work
// distribution, materializing it on first use within a decision.
func (p *ModelPolicy) exactPrefix() *dist.Discrete {
	if p.prefix == nil {
		p.prefix = p.m.Base.RemainingInto(p.work, &p.scratch)
	}
	return p.prefix
}

// fastMetric is metric computed on the window p.win, within band of the
// exact value. A queued request whose deadline has an ambiguous lattice
// index takes the exact VP instead.
func (p *ModelPolicy) fastMetric(f, now float64, cur *server.Request, queue []*server.Request) float64 {
	s := p.m.Stretch(f)
	vp := p.m.fastCCDF(p.win, (p.deadline(cur)-now)/s)
	worst, sum := vp, vp
	for i, r := range queue {
		omega := (p.deadline(r) - now) / s
		vp, ok := p.m.fastVP(p.win, i+1, omega)
		if !ok {
			p.exactTerms++
			vp = p.m.VP(p.exactPrefix(), i+1, omega)
		}
		worst = math.Max(worst, vp)
		sum += vp
	}
	if p.Agg == MaxVP {
		return worst
	}
	return sum / float64(len(queue)+1)
}

// metric evaluates the decision metric (max or average VP over the queued
// requests) at frequency f.
func (p *ModelPolicy) metric(f, now float64, cur *server.Request, queue []*server.Request, prefix *dist.Discrete) float64 {
	s := p.m.Stretch(f)
	worst, sum, n := 0.0, 0.0, 0
	if cur != nil {
		omega := (p.deadline(cur) - now) / s
		vp := prefix.CCDF(omega)
		worst = math.Max(worst, vp)
		sum += vp
		n++
	}
	for i, r := range queue {
		omega := (p.deadline(r) - now) / s
		vp := p.m.VP(prefix, i+1, omega)
		worst = math.Max(worst, vp)
		sum += vp
		n++
	}
	if p.Agg == MaxVP {
		return worst
	}
	return sum / float64(n)
}

// OnComplete implements server.Policy (no feedback needed).
func (p *ModelPolicy) OnComplete(now float64, r *server.Request) {}

// Decisions returns how many decisions the policy has made.
func (p *ModelPolicy) Decisions() int64 { return p.decisions }

// TimeTrader is the feedback baseline: every Period seconds it compares the
// windowed 95th-percentile of the ratio (observed server latency / allowed
// latency) to 1 and steps the frequency one grid notch up or down. The
// allowed latency is per-request (server budget plus network slack), which
// is the network-signal awareness of the original system in simplified
// form.
type TimeTrader struct {
	// Period is the adjustment interval (paper: 5 s).
	Period float64
	// Headroom is the ratio below which frequency steps down (default 0.9).
	Headroom float64
	// Quantile of the ratio window compared against 1 (default 0.95).
	Quantile float64

	window     *metrics.Window
	freqIdx    int
	lastAdjust float64
	grid       []float64
	// saturated counts adjustment epochs where the loop wanted to step up
	// but was already pinned at fmax — the feedback policy's version of an
	// infeasible decision.
	saturated int64
}

// NewTimeTrader returns the policy with the paper's 5-second period.
func NewTimeTrader() *TimeTrader {
	grid := power.FreqGrid()
	return &TimeTrader{
		Period:   5,
		Headroom: 0.9,
		Quantile: 0.95,
		window:   metrics.NewWindow(2 * 5),
		freqIdx:  len(grid) - 1,
		grid:     grid,
	}
}

// Name implements server.Policy.
func (t *TimeTrader) Name() string { return "timetrader" }

// OnDecision implements server.Policy.
func (t *TimeTrader) OnDecision(now float64, cur *server.Request, queue []*server.Request) float64 {
	if now-t.lastAdjust >= t.Period {
		t.lastAdjust = now
		// Evict-on-read: after a quiet gap the window must not keep
		// feeding decisions from samples older than its span.
		if t.window.CountAt(now) > 0 {
			// QuantileAtOr with a safe sentinel (Headroom keeps the index
			// where it is) — a concurrent eviction race can never feed the
			// step decision NaN or a stale sample.
			ratio := t.window.QuantileAtOr(now, t.Quantile, t.Headroom)
			switch {
			case ratio > 1 && t.freqIdx < len(t.grid)-1:
				t.freqIdx++
			case ratio > 1:
				// Wanted to step up but already pinned at fmax: saturated.
				t.saturated++
			case ratio < t.Headroom && t.freqIdx > 0:
				t.freqIdx--
			}
		}
	}
	return t.grid[t.freqIdx]
}

// SaturationCount reports adjustment epochs pinned at fmax with the tail
// still over budget. It implements server.SaturationReporter.
func (t *TimeTrader) SaturationCount() int64 { return t.saturated }

// OnComplete implements server.Policy.
func (t *TimeTrader) OnComplete(now float64, r *server.Request) {
	allowed := r.SlackDeadline - r.Arrival
	if allowed <= 0 {
		return
	}
	t.window.Add(now, (now-r.Arrival)/allowed)
}

// MaxFreq is the no-power-management baseline.
type MaxFreq struct{}

// NewMaxFreq returns the baseline policy.
func NewMaxFreq() MaxFreq { return MaxFreq{} }

// Name implements server.Policy.
func (MaxFreq) Name() string { return "maxfreq" }

// OnDecision implements server.Policy.
func (MaxFreq) OnDecision(now float64, cur *server.Request, queue []*server.Request) float64 {
	return power.FMaxGHz
}

// OnComplete implements server.Policy.
func (MaxFreq) OnComplete(now float64, r *server.Request) {}

// Compile-time interface checks.
var (
	_ server.Policy = (*ModelPolicy)(nil)
	_ server.Policy = (*TimeTrader)(nil)
	_ server.Policy = MaxFreq{}
)
