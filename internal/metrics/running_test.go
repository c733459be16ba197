package metrics

import (
	"math/rand"
	"testing"
)

// TestRunningQuantileMatchesReference interleaves adds and reads and pins
// the two-heap estimator against the copy+sort reference after every add,
// over heavy duplicates, descending runs and the edge quantiles.
func TestRunningQuantileMatchesReference(t *testing.T) {
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1} {
		r := rand.New(rand.NewSource(11))
		rq := RunningQuantile{Q: q}
		var ref []float64
		if rq.Value() != 0 || rq.Count() != 0 {
			t.Fatalf("q=%g: empty estimator Value=%g Count=%d, want 0/0", q, rq.Value(), rq.Count())
		}
		for step := 0; step < 600; step++ {
			var v float64
			switch r.Intn(3) {
			case 0:
				v = r.Float64()
			case 1:
				v = float64(r.Intn(4)) // heavy duplicates
			default:
				v = -float64(step) // a descending run
			}
			rq.Add(v)
			ref = append(ref, v)
			if got, want := rq.Value(), refQuantile(ref, q); got != want {
				t.Fatalf("q=%g step %d: Value = %g, want %g (n=%d)", q, step, got, want, len(ref))
			}
			if rq.Count() != len(ref) {
				t.Fatalf("q=%g step %d: Count = %d, want %d", q, step, rq.Count(), len(ref))
			}
		}
	}
}

// TestRunningQuantileSteadyStateAllocs: once the heaps have grown, an
// add-then-read cycle allocates nothing.
func TestRunningQuantileSteadyStateAllocs(t *testing.T) {
	rq := RunningQuantile{Q: 0.95}
	r := rand.New(rand.NewSource(1))
	vals := make([]float64, 256)
	for i := range vals {
		vals[i] = r.Float64()
	}
	for i := 0; i < 4096; i++ {
		rq.Add(vals[i%len(vals)])
	}
	// Reserve room for the measured cycles so that append's amortized
	// growth cannot land inside them.
	rq.lo = append(make([]float64, 0, len(rq.lo)+200), rq.lo...)
	rq.hi = append(make([]float64, 0, len(rq.hi)+200), rq.hi...)
	var x float64
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		rq.Add(vals[i%len(vals)])
		i++
		x += rq.Value()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Add+Value allocates %.1f/op, want 0", allocs)
	}
	_ = x
}

// FuzzRunningQuantile decodes the input into a sample stream (one byte per
// sample: small integers for duplicates, sign bit for descending values)
// and a quantile, and checks every prefix against the reference.
func FuzzRunningQuantile(f *testing.F) {
	f.Add(uint8(242), []byte{1, 2, 3, 3, 3, 200, 199, 198, 0, 0})
	f.Add(uint8(255), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add(uint8(1), []byte{128, 128, 128, 5})
	f.Fuzz(func(t *testing.T, qb uint8, data []byte) {
		q := float64(qb) / 255
		rq := RunningQuantile{Q: q}
		var ref []float64
		for _, b := range data {
			v := float64(b & 0x0f)
			if b&0x80 != 0 {
				v = -float64(b&0x7f) * 0.5
			}
			rq.Add(v)
			ref = append(ref, v)
			if got, want := rq.Value(), refQuantile(ref, q); got != want {
				t.Fatalf("q=%g n=%d: Value = %g, want %g", q, len(ref), got, want)
			}
		}
	})
}
