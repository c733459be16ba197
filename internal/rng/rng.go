// Package rng provides deterministic random-variate generation for the
// simulators. Every stochastic component of the system draws from its own
// named stream derived from a master seed, so that changing one component's
// consumption pattern does not perturb the others and whole-system runs are
// reproducible.
package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Stream is a deterministic source of random variates.
type Stream struct {
	r *rand.Rand
}

// New returns a stream seeded directly with seed.
func New(seed int64) *Stream {
	return &Stream{r: rand.New(rand.NewSource(seed))}
}

// Derive returns a sub-stream whose seed combines the master seed with a
// component name, so independent components get decoupled streams.
func Derive(master int64, name string) *Stream {
	h := fnv.New64a()
	h.Write([]byte(name))
	return New(master ^ int64(h.Sum64()))
}

// Float64 returns a uniform variate in [0,1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform integer in [0,n).
func (s *Stream) Intn(n int) int { return s.r.Intn(n) }

// Uniform returns a uniform variate in [lo,hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Exp returns an exponential variate with the given mean (not rate).
func (s *Stream) Exp(mean float64) float64 {
	return s.r.ExpFloat64() * mean
}

// Normal returns a normal variate.
func (s *Stream) Normal(mu, sigma float64) float64 {
	return mu + sigma*s.r.NormFloat64()
}

// LogNormal returns a log-normal variate where mu and sigma are the
// parameters of the underlying normal (i.e. median = exp(mu)).
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.r.NormFloat64())
}

// LogNormalMeanCV returns a log-normal variate parameterized by its own mean
// and coefficient of variation, which is how workload shapes are specified
// in configuration.
func (s *Stream) LogNormalMeanCV(mean, cv float64) float64 {
	mu, sigma := LogNormalParams(mean, cv)
	return s.LogNormal(mu, sigma)
}

// LogNormalParams converts (mean, cv) of a log-normal to (mu, sigma) of the
// underlying normal.
func LogNormalParams(mean, cv float64) (mu, sigma float64) {
	sigma2 := math.Log(1 + cv*cv)
	mu = math.Log(mean) - sigma2/2
	return mu, math.Sqrt(sigma2)
}

// BoundedPareto returns a Pareto variate with shape alpha truncated to
// [lo,hi]. Used for heavy-tailed background ("elephant") flow sizes.
func (s *Stream) BoundedPareto(alpha, lo, hi float64) float64 {
	u := s.r.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// Poisson returns a Poisson-distributed count with the given mean, using
// Knuth's method for small means and a normal approximation for large ones.
func (s *Stream) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		v := s.Normal(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Choice returns a uniformly chosen index weighted by w (w need not be
// normalized). Panics if all weights are zero or negative.
func (s *Stream) Choice(w []float64) int {
	total := 0.0
	for _, v := range w {
		if v > 0 {
			total += v
		}
	}
	if total <= 0 {
		panic("rng: Choice with non-positive total weight")
	}
	x := s.r.Float64() * total
	for i, v := range w {
		if v <= 0 {
			continue
		}
		x -= v
		if x < 0 {
			return i
		}
	}
	return len(w) - 1
}
