// Package dist implements discrete (lattice) probability distributions used
// as the statistical performance model of EPRONS-Server (paper §III-B).
//
// A Discrete distribution places probability mass on the lattice points
// 0, Step, 2·Step, ... Service-time and work distributions are built from
// empirical samples, combined by convolution ("equivalent requests"), scaled
// for DVFS frequency changes, and queried through their complementary CDF to
// obtain deadline violation probabilities.
package dist

import (
	"fmt"
	"math"
	"sort"

	"eprons/internal/fft"
)

// Discrete is a probability distribution on the lattice {i·Step : i ≥ 0}.
// P[i] is the mass at value i·Step. A valid distribution has non-negative
// masses summing to 1 (within floating-point tolerance).
type Discrete struct {
	Step float64
	P    []float64
}

// MassEps is the tail mass below which trailing lattice points are trimmed,
// and below which Remaining treats a request as finished. A trim drops at
// most len(P)·MassEps of mass.
const MassEps = 1e-12

// LatticeIndex returns floor(x/step + 1e-9), the lattice index the CCDF
// family rounds a work bound x down to, clamped to [-1, limit]. Callers
// pass limit = "beyond the support", so an over-range x (+Inf, 1e300, or
// anything past limit) maps to limit instead of overflowing the int
// conversion. NaN compares false with every bound and maps to limit too:
// a NaN work bound is read as lying beyond the support.
func LatticeIndex(x, step float64, limit int) int {
	f := math.Floor(x/step + 1e-9)
	if !(f < float64(limit)) {
		return limit
	}
	if f < -1 {
		return -1
	}
	return int(f)
}

// New returns a distribution with the given step and masses. The masses are
// normalized; an all-zero mass vector or non-positive step is rejected.
func New(step float64, p []float64) (*Discrete, error) {
	if step <= 0 {
		return nil, fmt.Errorf("dist: step %g must be positive", step)
	}
	total := 0.0
	for i, v := range p {
		if v < 0 {
			return nil, fmt.Errorf("dist: negative mass %g at index %d", v, i)
		}
		total += v
	}
	if total <= 0 {
		return nil, fmt.Errorf("dist: total mass must be positive")
	}
	q := make([]float64, len(p))
	for i, v := range p {
		q[i] = v / total
	}
	d := &Discrete{Step: step, P: q}
	d.trim()
	return d, nil
}

// Point returns the degenerate distribution concentrated at value
// (rounded to the lattice).
func Point(step, value float64) *Discrete {
	idx := int(math.Round(value / step))
	if idx < 0 {
		idx = 0
	}
	p := make([]float64, idx+1)
	p[idx] = 1
	return &Discrete{Step: step, P: p}
}

// FromSamples bins samples onto the lattice. Negative samples are clamped
// to zero. Returns an error if samples is empty.
func FromSamples(step float64, samples []float64) (*Discrete, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("dist: no samples")
	}
	if step <= 0 {
		return nil, fmt.Errorf("dist: step %g must be positive", step)
	}
	maxIdx := 0
	idxs := make([]int, len(samples))
	for i, s := range samples {
		if s < 0 {
			s = 0
		}
		idx := int(math.Round(s / step))
		idxs[i] = idx
		if idx > maxIdx {
			maxIdx = idx
		}
	}
	p := make([]float64, maxIdx+1)
	w := 1.0 / float64(len(samples))
	for _, idx := range idxs {
		p[idx] += w
	}
	return &Discrete{Step: step, P: p}, nil
}

// Clone returns a deep copy.
func (d *Discrete) Clone() *Discrete {
	p := make([]float64, len(d.P))
	copy(p, d.P)
	return &Discrete{Step: d.Step, P: p}
}

// trim drops negligible trailing mass and renormalizes.
func (d *Discrete) trim() {
	n := len(d.P)
	for n > 1 && d.P[n-1] < MassEps {
		n--
	}
	d.P = d.P[:n]
	d.normalize()
}

func (d *Discrete) normalize() {
	total := 0.0
	for _, v := range d.P {
		total += v
	}
	if total > 0 && math.Abs(total-1) > 1e-15 {
		inv := 1 / total
		for i := range d.P {
			d.P[i] *= inv
		}
	}
}

// Mean returns E[X].
func (d *Discrete) Mean() float64 {
	m := 0.0
	for i, v := range d.P {
		m += v * float64(i)
	}
	return m * d.Step
}

// Var returns Var[X].
func (d *Discrete) Var() float64 {
	m := d.Mean()
	s := 0.0
	for i, v := range d.P {
		x := float64(i) * d.Step
		s += v * (x - m) * (x - m)
	}
	return s
}

// Max returns the largest lattice value with non-negligible mass.
func (d *Discrete) Max() float64 {
	return float64(len(d.P)-1) * d.Step
}

// CCDF returns P(X > x), the deadline violation probability when x is the
// amount of work ω(D) that can be completed before the deadline (eq. 1).
// A NaN or infinite x lies beyond the support: CCDF(+Inf) = CCDF(NaN) = 0.
func (d *Discrete) CCDF(x float64) float64 {
	if x < 0 {
		return 1
	}
	// Lattice points strictly greater than x: indices > floor(x/Step + eps).
	idx := LatticeIndex(x, d.Step, len(d.P)-1)
	if idx >= len(d.P)-1 {
		return 0
	}
	s := 0.0
	for i := idx + 1; i < len(d.P); i++ {
		s += d.P[i]
	}
	return s
}

// CDF returns P(X <= x).
func (d *Discrete) CDF(x float64) float64 { return 1 - d.CCDF(x) }

// Quantile returns the smallest lattice value q with P(X <= q) >= p.
func (d *Discrete) Quantile(p float64) float64 {
	if p <= 0 {
		return 0
	}
	cum := 0.0
	for i, v := range d.P {
		cum += v
		if cum >= p-1e-12 {
			return float64(i) * d.Step
		}
	}
	return d.Max()
}

// Convolve returns the distribution of the sum of two independent variables
// on the same lattice. This is the "equivalent request" operation of paper
// §III: the work of request Rn plus all requests ahead of it.
func (d *Discrete) Convolve(o *Discrete) *Discrete {
	if d.Step != o.Step {
		panic(fmt.Sprintf("dist: convolve with mismatched steps %g vs %g", d.Step, o.Step))
	}
	out := &Discrete{Step: d.Step, P: fft.Convolve(d.P, o.P)}
	out.trim()
	return out
}

// ConvolveDirect is Convolve forced through the schoolbook algorithm; it
// exists for the FFT-vs-direct ablation benchmark.
func (d *Discrete) ConvolveDirect(o *Discrete) *Discrete {
	if d.Step != o.Step {
		panic("dist: convolve with mismatched steps")
	}
	out := &Discrete{Step: d.Step, P: fft.ConvolveDirect(d.P, o.P)}
	out.trim()
	return out
}

// Scale returns the distribution of factor·X, re-binned onto the lattice.
// factor must be positive.
func (d *Discrete) Scale(factor float64) *Discrete {
	if factor <= 0 {
		panic(fmt.Sprintf("dist: scale factor %g must be positive", factor))
	}
	maxIdx := int(math.Round(float64(len(d.P)-1) * factor))
	p := make([]float64, maxIdx+1)
	for i, v := range d.P {
		if v == 0 {
			continue
		}
		j := int(math.Round(float64(i) * factor))
		if j > maxIdx {
			j = maxIdx
		}
		p[j] += v
	}
	out := &Discrete{Step: d.Step, P: p}
	out.trim()
	return out
}

// Shift returns the distribution of X + c for c >= 0 (lattice-rounded).
func (d *Discrete) Shift(c float64) *Discrete {
	if c < 0 {
		panic("dist: negative shift")
	}
	k := int(math.Round(c / d.Step))
	p := make([]float64, len(d.P)+k)
	copy(p[k:], d.P)
	return &Discrete{Step: d.Step, P: p}
}

// Remaining returns the distribution of X - w conditioned on X > w: the
// work left in a request that has already received w units of service.
// If the condition has negligible probability the point mass at 0 is
// returned (the request is essentially finished); so it is for a w past the
// support, +Inf and NaN included.
func (d *Discrete) Remaining(w float64) *Discrete {
	if w <= 0 {
		return d.Clone()
	}
	k := LatticeIndex(w, d.Step, len(d.P)-1)
	if k+1 >= len(d.P) {
		return Point(d.Step, 0)
	}
	tail := 0.0
	for i := k + 1; i < len(d.P); i++ {
		tail += d.P[i]
	}
	if tail < MassEps {
		return Point(d.Step, 0)
	}
	p := make([]float64, len(d.P)-k-1+1)
	for i := k + 1; i < len(d.P); i++ {
		p[i-k-1+1] += d.P[i] / tail // shift by one lattice point: at least one step of work remains
	}
	out := &Discrete{Step: d.Step, P: p}
	out.trim()
	return out
}

// RemainingInto is Remaining writing its result into out, reusing out's
// mass slice across calls. It performs exactly the arithmetic of Remaining
// (same summation order, same division, same trim), so the produced values
// are bit-identical — only the per-call allocations are saved. out must not
// alias d. Returns out.
//
// This is the DVFS hot path: every scheduling decision on a busy core
// conditions the base distribution on the in-service request's progress,
// and the result lives only for the duration of the decision.
func (d *Discrete) RemainingInto(w float64, out *Discrete) *Discrete {
	out.Step = d.Step
	if w <= 0 {
		out.P = append(out.P[:0], d.P...)
		return out
	}
	k := LatticeIndex(w, d.Step, len(d.P)-1)
	if k+1 >= len(d.P) {
		out.P = append(out.P[:0], 1) // point mass at 0: essentially finished
		return out
	}
	tail := 0.0
	for i := k + 1; i < len(d.P); i++ {
		tail += d.P[i]
	}
	if tail < MassEps {
		out.P = append(out.P[:0], 1)
		return out
	}
	n := len(d.P) - k - 1 + 1
	p := out.P[:0]
	if cap(p) < n {
		p = make([]float64, n)
	} else {
		p = p[:n]
		for i := range p {
			p[i] = 0
		}
	}
	for i := k + 1; i < len(d.P); i++ {
		p[i-k-1+1] += d.P[i] / tail // shift by one lattice point: at least one step of work remains
	}
	out.P = p
	out.trim()
	return out
}

// Sample draws a variate using u ~ Uniform[0,1).
func (d *Discrete) Sample(u float64) float64 {
	cum := 0.0
	for i, v := range d.P {
		cum += v
		if u < cum {
			return float64(i) * d.Step
		}
	}
	return d.Max()
}

// Rebin returns the same distribution on a coarser lattice with the given
// step, used to bound convolution cost for long queues.
func (d *Discrete) Rebin(step float64) *Discrete {
	if step <= d.Step {
		return d.Clone()
	}
	r := step / d.Step
	maxIdx := int(math.Round(float64(len(d.P)-1) / r))
	p := make([]float64, maxIdx+1)
	for i, v := range d.P {
		j := int(math.Round(float64(i) / r))
		if j > maxIdx {
			j = maxIdx
		}
		p[j] += v
	}
	out := &Discrete{Step: step, P: p}
	out.trim()
	return out
}

// Percentiles is a convenience that returns the given quantiles of a sorted
// sample slice (nearest-rank). It lives here because experiment harnesses
// use it alongside distribution math.
func Percentiles(samples []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(samples) == 0 {
		return out
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	for i, q := range qs {
		idx := int(math.Ceil(q*float64(len(s)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(s) {
			idx = len(s) - 1
		}
		out[i] = s[idx]
	}
	return out
}
