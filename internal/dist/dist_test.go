package dist

import (
	"math"
	"testing"
	"testing/quick"

	"eprons/internal/rng"
)

func mustNew(t *testing.T, step float64, p []float64) *Discrete {
	t.Helper()
	d, err := New(step, p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, []float64{1}); err == nil {
		t.Fatal("zero step accepted")
	}
	if _, err := New(1, []float64{-1, 2}); err == nil {
		t.Fatal("negative mass accepted")
	}
	if _, err := New(1, []float64{0, 0}); err == nil {
		t.Fatal("zero mass accepted")
	}
}

func TestNewNormalizes(t *testing.T) {
	d := mustNew(t, 1, []float64{2, 2})
	if math.Abs(d.P[0]-0.5) > 1e-12 || math.Abs(d.P[1]-0.5) > 1e-12 {
		t.Fatalf("not normalized: %v", d.P)
	}
}

func TestPointAndMean(t *testing.T) {
	d := Point(0.5, 2.0)
	if d.Mean() != 2.0 {
		t.Fatalf("point mean %g, want 2", d.Mean())
	}
	if d.Var() != 0 {
		t.Fatalf("point var %g, want 0", d.Var())
	}
}

func TestFromSamples(t *testing.T) {
	d, err := FromSamples(1, []float64{0, 1, 1, 2, -5})
	if err != nil {
		t.Fatal(err)
	}
	// -5 clamps to 0 → masses: 0:0.4, 1:0.4, 2:0.2
	want := []float64{0.4, 0.4, 0.2}
	for i, w := range want {
		if math.Abs(d.P[i]-w) > 1e-12 {
			t.Fatalf("P[%d]=%g want %g", i, d.P[i], w)
		}
	}
	if _, err := FromSamples(1, nil); err == nil {
		t.Fatal("empty samples accepted")
	}
}

func TestCCDFAndQuantile(t *testing.T) {
	d := mustNew(t, 1, []float64{0.25, 0.25, 0.25, 0.25}) // mass at 0,1,2,3
	if v := d.CCDF(-1); v != 1 {
		t.Fatalf("CCDF(-1)=%g", v)
	}
	if v := d.CCDF(0); math.Abs(v-0.75) > 1e-12 {
		t.Fatalf("CCDF(0)=%g want 0.75", v)
	}
	if v := d.CCDF(1.5); math.Abs(v-0.5) > 1e-12 {
		t.Fatalf("CCDF(1.5)=%g want 0.5", v)
	}
	if v := d.CCDF(3); v != 0 {
		t.Fatalf("CCDF(3)=%g want 0", v)
	}
	if q := d.Quantile(0.5); q != 1 {
		t.Fatalf("Q(0.5)=%g want 1", q)
	}
	if q := d.Quantile(0.95); q != 3 {
		t.Fatalf("Q(0.95)=%g want 3", q)
	}
}

func TestConvolveMeansAdd(t *testing.T) {
	a := mustNew(t, 0.001, []float64{0.5, 0.3, 0.2})
	b := mustNew(t, 0.001, []float64{0.1, 0.9})
	c := a.Convolve(b)
	if math.Abs(c.Mean()-(a.Mean()+b.Mean())) > 1e-12 {
		t.Fatalf("conv mean %g, want %g", c.Mean(), a.Mean()+b.Mean())
	}
	d := a.ConvolveDirect(b)
	for i := range c.P {
		if math.Abs(c.P[i]-d.P[i]) > 1e-9 {
			t.Fatal("FFT vs direct mismatch")
		}
	}
}

func TestConvolveStepMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Point(1, 1).Convolve(Point(2, 2))
}

func TestScale(t *testing.T) {
	d := mustNew(t, 1, []float64{0, 0.5, 0.5}) // mass at 1 and 2
	s := d.Scale(2)
	if math.Abs(s.Mean()-3) > 1e-12 { // 2 and 4 each with mass .5
		t.Fatalf("scaled mean %g, want 3", s.Mean())
	}
	if math.Abs(s.CCDF(3)-0.5) > 1e-12 {
		t.Fatalf("scaled CCDF(3)=%g", s.CCDF(3))
	}
}

func TestShift(t *testing.T) {
	d := Point(0.5, 1)
	s := d.Shift(2)
	if s.Mean() != 3 {
		t.Fatalf("shift mean %g, want 3", s.Mean())
	}
}

func TestRemaining(t *testing.T) {
	// Uniform on {0..9}, after 4.5 units of work: mass on lattice > 4 →
	// {5..9} shifted down to start one step above zero.
	p := make([]float64, 10)
	for i := range p {
		p[i] = 0.1
	}
	d := mustNew(t, 1, p)
	r := d.Remaining(4.5)
	total := 0.0
	for _, v := range r.P {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("remaining not normalized: %g", total)
	}
	if r.Mean() <= 0 || r.Mean() >= d.Mean() {
		t.Fatalf("remaining mean %g out of range (orig %g)", r.Mean(), d.Mean())
	}
	// Work past the support → finished.
	fin := d.Remaining(100)
	if fin.Mean() != 0 {
		t.Fatalf("finished request mean %g, want 0", fin.Mean())
	}
}

func TestSample(t *testing.T) {
	d := mustNew(t, 1, []float64{0.2, 0.8})
	if v := d.Sample(0.1); v != 0 {
		t.Fatalf("Sample(0.1)=%g", v)
	}
	if v := d.Sample(0.5); v != 1 {
		t.Fatalf("Sample(0.5)=%g", v)
	}
	if v := d.Sample(0.999999999); v != 1 {
		t.Fatalf("Sample(~1)=%g", v)
	}
}

func TestSampleMatchesDistribution(t *testing.T) {
	s := rng.New(11)
	d := mustNew(t, 1, []float64{0.5, 0.25, 0.25})
	counts := make([]float64, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[int(d.Sample(s.Float64()))]++
	}
	for i, want := range []float64{0.5, 0.25, 0.25} {
		if math.Abs(counts[i]/n-want) > 0.01 {
			t.Fatalf("empirical mass[%d]=%g want %g", i, counts[i]/n, want)
		}
	}
}

func TestRebin(t *testing.T) {
	p := make([]float64, 100)
	for i := range p {
		p[i] = 0.01
	}
	d := mustNew(t, 0.001, p)
	r := d.Rebin(0.004)
	if r.Step != 0.004 {
		t.Fatalf("step %g", r.Step)
	}
	if math.Abs(r.Mean()-d.Mean()) > 2*0.004 {
		t.Fatalf("rebin mean drifted: %g vs %g", r.Mean(), d.Mean())
	}
	// Rebin to a finer step is a no-op clone.
	same := d.Rebin(0.0001)
	if same.Step != d.Step {
		t.Fatal("finer rebin must keep step")
	}
}

func TestPercentiles(t *testing.T) {
	got := Percentiles([]float64{5, 1, 3, 2, 4}, 0.5, 0.95, 1.0)
	if got[0] != 3 || got[1] != 5 || got[2] != 5 {
		t.Fatalf("percentiles %v", got)
	}
	if v := Percentiles(nil, 0.5); v[0] != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

// Property: CCDF is monotone non-increasing in x and bounded in [0,1].
func TestQuickCCDFMonotone(t *testing.T) {
	f := func(masses []uint8, x1, x2 uint8) bool {
		if len(masses) == 0 {
			return true
		}
		total := 0
		for _, m := range masses {
			total += int(m)
		}
		if total == 0 {
			return true
		}
		p := make([]float64, len(masses))
		for i, m := range masses {
			p[i] = float64(m)
		}
		d, err := New(0.5, p)
		if err != nil {
			return false
		}
		a, b := float64(x1)/10, float64(x2)/10
		if a > b {
			a, b = b, a
		}
		ca, cb := d.CCDF(a), d.CCDF(b)
		return ca >= cb && ca <= 1+1e-12 && cb >= -1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: for any distribution and any p, CCDF(Quantile(p)) <= 1-p + step
// tolerance (quantile/CCDF consistency).
func TestQuickQuantileCCDFConsistency(t *testing.T) {
	f := func(masses []uint8, p8 uint8) bool {
		if len(masses) == 0 {
			return true
		}
		total := 0
		for _, m := range masses {
			total += int(m)
		}
		if total == 0 {
			return true
		}
		pm := make([]float64, len(masses))
		for i, m := range masses {
			pm[i] = float64(m)
		}
		d, err := New(1, pm)
		if err != nil {
			return false
		}
		p := float64(p8%100)/100 + 0.005
		q := d.Quantile(p)
		return d.CDF(q) >= p-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: scaling preserves total mass and scales the mean.
func TestQuickScaleMean(t *testing.T) {
	f := func(masses []uint8, f8 uint8) bool {
		if len(masses) == 0 {
			return true
		}
		total := 0
		for _, m := range masses {
			total += int(m)
		}
		if total == 0 {
			return true
		}
		pm := make([]float64, len(masses))
		for i, m := range masses {
			pm[i] = float64(m)
		}
		d, err := New(1, pm)
		if err != nil {
			return false
		}
		factor := 0.5 + float64(f8)/64
		s := d.Scale(factor)
		// Rounding to the lattice moves each point at most 0.5 steps.
		return math.Abs(s.Mean()-factor*d.Mean()) <= 0.5+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// An over-range work bound (+Inf, 1e300, NaN) lies beyond the support: the
// lattice-index conversion clamps instead of overflowing into a negative
// index, so CCDF reads 0 and a request with that much work done is
// finished.
func TestOverRangeWorkBound(t *testing.T) {
	d := mustNew(t, 1e-4, []float64{0.1, 0.2, 0.3, 0.4})
	var buf Discrete
	for _, x := range []float64{math.Inf(1), 1e300, 1e15, math.NaN()} {
		if got := LatticeIndex(x, d.Step, 3); got != 3 {
			t.Errorf("LatticeIndex(%g) = %d, want the limit 3", x, got)
		}
		if got := d.CCDF(x); got != 0 {
			t.Errorf("CCDF(%g) = %g, want 0", x, got)
		}
		for _, r := range []*Discrete{d.Remaining(x), d.RemainingInto(x, &buf)} {
			if len(r.P) != 1 || r.P[0] != 1 {
				t.Errorf("Remaining(%g) = %v, want the point mass at 0", x, r.P)
			}
		}
	}
	if got := LatticeIndex(math.Inf(-1), d.Step, 3); got != -1 {
		t.Errorf("LatticeIndex(-Inf) = %d, want -1", got)
	}
	if d.CCDF(math.Inf(-1)) != 1 || len(d.Remaining(math.Inf(-1)).P) != len(d.P) {
		t.Error("-Inf: CCDF must be 1 and Remaining the whole distribution")
	}
}
