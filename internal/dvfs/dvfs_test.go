package dvfs

import (
	"math"
	"testing"
	"testing/quick"

	"eprons/internal/dist"
	"eprons/internal/power"
	"eprons/internal/server"
)

func pointModel(t *testing.T, serviceS float64) *Model {
	t.Helper()
	m, err := NewModel(dist.Point(1e-4, serviceS), 1.0, power.FMaxGHz)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func uniformModel(t *testing.T) *Model {
	t.Helper()
	// Uniform over {1ms..4ms}.
	d, err := dist.New(1e-3, []float64{0, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(d, 1.0, power.FMaxGHz)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(nil, 0.9, 2.7); err == nil {
		t.Fatal("nil base accepted")
	}
	if _, err := NewModel(dist.Point(1, 1), 2, 2.7); err == nil {
		t.Fatal("alpha > 1 accepted")
	}
	if _, err := NewModel(dist.Point(1, 1), 0.9, 0); err == nil {
		t.Fatal("fmax 0 accepted")
	}
}

func TestTailCCDFPointDist(t *testing.T) {
	m := pointModel(t, 2e-3)
	// Two requests: total work exactly 4ms.
	if got := m.TailCCDF(2, 3.9e-3); got != 1 {
		t.Fatalf("P(4ms > 3.9ms) = %g, want 1", got)
	}
	if got := m.TailCCDF(2, 4.1e-3); got != 0 {
		t.Fatalf("P(4ms > 4.1ms) = %g, want 0", got)
	}
	// k=0: an empty sum exceeds nothing non-negative.
	if m.TailCCDF(0, 0) != 0 || m.TailCCDF(0, -1) != 1 {
		t.Fatal("k=0 edge cases")
	}
}

func TestVPWithPrefix(t *testing.T) {
	m := pointModel(t, 2e-3)
	prefix := dist.Point(1e-4, 1e-3) // 1ms of remaining work
	// prefix + 1 request = 3ms.
	if got := m.VP(prefix, 1, 2.9e-3); got != 1 {
		t.Fatalf("VP=%g, want 1", got)
	}
	if got := m.VP(prefix, 1, 3.1e-3); got != 0 {
		t.Fatalf("VP=%g, want 0", got)
	}
	// nil prefix falls back to TailCCDF.
	if got := m.VP(nil, 1, 1.9e-3); got != 1 {
		t.Fatalf("VP=%g, want 1", got)
	}
	// k=0 with prefix = prefix CCDF.
	if got := m.VP(prefix, 0, 0.5e-3); got != 1 {
		t.Fatalf("VP=%g, want 1", got)
	}
}

func TestVPMatchesExplicitConvolution(t *testing.T) {
	m := uniformModel(t)
	prefix := m.Base.Remaining(1.5e-3)
	explicit := prefix.Convolve(m.Base).Convolve(m.Base)
	for _, x := range []float64{0, 2e-3, 5e-3, 8e-3, 12e-3} {
		want := explicit.CCDF(x)
		got := m.VP(prefix, 2, x)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("VP(%g)=%g, explicit %g", x, got, want)
		}
	}
}

func mkReq(id int64, arrival, base, serverDl, slackDl float64) *server.Request {
	return &server.Request{ID: id, Arrival: arrival, BaseServiceS: base, ServerDeadline: serverDl, SlackDeadline: slackDl}
}

func TestEmptyQueueReturnsMinFreq(t *testing.T) {
	p := NewEPRONSServer(uniformModel(t), 0.05)
	if f := p.OnDecision(0, nil, nil); f != power.FMinGHz {
		t.Fatalf("idle decision %g, want fmin", f)
	}
}

func TestTightDeadlineForcesMaxFreq(t *testing.T) {
	m := pointModel(t, 2e-3)
	p := NewRubik(m, 0.05)
	// Deadline of 1ms for 2ms of work: impossible even at fmax.
	r := mkReq(1, 0, 2e-3, 1e-3, 1e-3)
	if f := p.OnDecision(0, nil, []*server.Request{r}); f != power.FMaxGHz {
		t.Fatalf("impossible deadline chose %g, want fmax", f)
	}
}

func TestLooseDeadlineAllowsMinFreq(t *testing.T) {
	m := pointModel(t, 2e-3)
	p := NewRubik(m, 0.05)
	r := mkReq(1, 0, 2e-3, 10, 10)
	if f := p.OnDecision(0, nil, []*server.Request{r}); f != power.FMinGHz {
		t.Fatalf("loose deadline chose %g, want fmin", f)
	}
}

func TestFrequencyJustSufficient(t *testing.T) {
	// Point-mass 2ms of work (at 2.7GHz) due in 3ms: need stretch <= 1.5
	// → f >= 2.7/1.5 = 1.8 GHz (alpha=1).
	m := pointModel(t, 2e-3)
	p := NewRubik(m, 0.05)
	r := mkReq(1, 0, 2e-3, 3e-3, 3e-3)
	if f := p.OnDecision(0, nil, []*server.Request{r}); math.Abs(f-1.8) > 1e-9 {
		t.Fatalf("chose %g, want 1.8", f)
	}
}

func TestEPRONSChoosesAtMostRubikFrequency(t *testing.T) {
	// The paper's Fig 4 situation: one tight request and one loose one.
	// Rubik runs at the max over per-request needs; EPRONS averages the
	// VPs and can run slower.
	m := uniformModel(t)
	rubik := NewRubikPlus(m, 0.05)
	eprons := NewEPRONSServer(m, 0.05)
	queue := func() []*server.Request {
		return []*server.Request{
			mkReq(1, 0, 2e-3, 6e-3, 6e-3),   // tightish
			mkReq(2, 0, 2e-3, 50e-3, 50e-3), // very loose
		}
	}
	fr := rubik.OnDecision(0, nil, queue())
	fe := eprons.OnDecision(0, nil, queue())
	if fe > fr {
		t.Fatalf("EPRONS chose %g > Rubik %g", fe, fr)
	}
}

func TestRubikIgnoresSlackRubikPlusUses(t *testing.T) {
	m := uniformModel(t)
	rubik := NewRubik(m, 0.05)
	plus := NewRubikPlus(m, 0.05)
	// Server deadline tight, slack deadline loose.
	q := func() []*server.Request { return []*server.Request{mkReq(1, 0, 2e-3, 5e-3, 60e-3)} }
	fr := rubik.OnDecision(0, nil, q())
	fp := plus.OnDecision(0, nil, q())
	if fp >= fr {
		t.Fatalf("Rubik+ (%g) should run slower than Rubik (%g) given slack", fp, fr)
	}
}

func TestEDFReordersQueue(t *testing.T) {
	m := uniformModel(t)
	p := NewEPRONSServer(m, 0.05)
	a := mkReq(1, 0, 2e-3, 0, 50e-3)
	b := mkReq(2, 0, 2e-3, 0, 10e-3)
	q := []*server.Request{a, b}
	p.OnDecision(0, nil, q)
	if q[0] != b || q[1] != a {
		t.Fatal("queue not EDF-ordered")
	}
	// Rubik does not reorder.
	q2 := []*server.Request{a, b}
	NewRubik(m, 0.05).OnDecision(0, nil, q2)
	if q2[0] != a {
		t.Fatal("rubik reordered the queue")
	}
}

func TestTimeTraderFeedback(t *testing.T) {
	tt := NewTimeTrader()
	grid := power.FreqGrid()
	if f := tt.OnDecision(0, nil, nil); f != grid[len(grid)-1] {
		t.Fatalf("initial freq %g, want fmax", f)
	}
	// Comfortable completions (ratio 0.4) for a period → steps down.
	for i := 0; i < 50; i++ {
		now := float64(i) * 0.1
		r := mkReq(int64(i), now-4e-3, 1e-3, now, now-4e-3+10e-3)
		tt.OnComplete(now, r)
	}
	f := tt.OnDecision(6, nil, nil)
	if f >= grid[len(grid)-1] {
		t.Fatalf("comfortable load did not step down: %g", f)
	}
	// Overload (ratio > 1) → steps back up after another period.
	for i := 0; i < 50; i++ {
		now := 6 + float64(i)*0.05
		r := mkReq(int64(100+i), now-2e-3, 1e-3, now, now-2e-3+1e-3)
		tt.OnComplete(now, r)
	}
	f2 := tt.OnDecision(12, nil, nil)
	if f2 <= f {
		t.Fatalf("overload did not step up: %g vs %g", f2, f)
	}
	// Zero-allowed completions are ignored rather than dividing by zero.
	tt.OnComplete(13, mkReq(3, 5, 1e-3, 5, 5))
}

func TestMaxFreq(t *testing.T) {
	p := NewMaxFreq()
	if p.Name() != "maxfreq" {
		t.Fatal("name")
	}
	if f := p.OnDecision(0, nil, nil); f != power.FMaxGHz {
		t.Fatalf("maxfreq returned %g", f)
	}
	p.OnComplete(0, nil) // must not panic
}

// Property: the model-policy decision is monotone in deadline tightness —
// a uniformly looser queue never needs a higher frequency.
func TestQuickMonotoneInDeadline(t *testing.T) {
	m := uniformModel(t)
	p := NewEPRONSServer(m, 0.05)
	f := func(d8 uint8, extra8 uint8) bool {
		d := 3e-3 + float64(d8)/255*30e-3
		extra := float64(extra8) / 255 * 20e-3
		q1 := []*server.Request{mkReq(1, 0, 2e-3, d, d)}
		q2 := []*server.Request{mkReq(1, 0, 2e-3, d+extra, d+extra)}
		f1 := p.OnDecision(0, nil, q1)
		f2 := p.OnDecision(0, nil, q2)
		return f2 <= f1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: average VP at the chosen frequency meets the target whenever
// any grid frequency can meet it.
func TestQuickChosenFreqMeetsTarget(t *testing.T) {
	m := uniformModel(t)
	p := NewEPRONSServer(m, 0.05)
	f := func(deadlines []uint8) bool {
		if len(deadlines) == 0 || len(deadlines) > 6 {
			return true
		}
		var q []*server.Request
		for i, d8 := range deadlines {
			d := 5e-3 + float64(d8)/255*60e-3
			q = append(q, mkReq(int64(i), 0, 2e-3, d, d))
		}
		chosen := p.OnDecision(0, nil, q)
		avgAt := func(freq float64) float64 {
			s := m.Stretch(freq)
			sum := 0.0
			for i, r := range q {
				sum += m.VP(nil, i+1, (r.SlackDeadline-0)/s)
			}
			return sum / float64(len(q))
		}
		if avgAt(power.FMaxGHz) > 0.05 {
			// Unmeetable: policy must have returned fmax.
			return chosen == power.FMaxGHz
		}
		return avgAt(chosen) <= 0.05+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Over-range work bounds read as beyond the support in every VP form,
// the fast ones included, instead of panicking on a negative index.
func TestOverRangeWorkBound(t *testing.T) {
	m := uniformModel(t)
	prefix := m.Base.Remaining(1.5e-3)
	w, ok := m.remaining(1.5e-3)
	if !ok {
		t.Fatal("window unavailable")
	}
	for _, x := range []float64{math.Inf(1), 1e300, 1e15, math.NaN()} {
		for k := 1; k <= 3; k++ {
			fast, ok := m.fastVP(w, k, x)
			if got := []float64{m.TailCCDF(k, x), m.VP(prefix, k, x), fast}; got[0] != 0 || got[1] != 0 || got[2] != 0 || !ok {
				t.Errorf("x=%g k=%d: TailCCDF, VP, fastVP = %v (ok %v), want 0", x, k, got, ok)
			}
		}
		if got := m.fastCCDF(w, x); got != 0 {
			t.Errorf("fastCCDF(%g) = %g, want 0", x, got)
		}
	}
}
