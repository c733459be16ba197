package metrics

import "math"

// RunningQuantile answers one fixed nearest-rank quantile over a growing
// sample stream. It holds the samples in two heaps split at the quantile's
// rank: lo keeps the ceil(Q·n) smallest samples with the largest on top,
// hi keeps the rest with the smallest on top. Add costs O(log n), Value is
// O(1) and returns exactly what Tracker.Quantile(Q) would over the same
// samples. Samples must not be NaN.
//
// The zero value with Q set is ready to use; once the heaps have grown to
// the high-water mark Add and Value allocate nothing.
type RunningQuantile struct {
	// Q is the tracked quantile, in (0,1]; set it before the first Add.
	Q float64
	// lo stores its samples negated so both halves share one min-heap
	// implementation; negation is exact, so Value returns the sample bits.
	lo, hi []float64
}

// Add records one sample.
func (r *RunningQuantile) Add(v float64) {
	if len(r.lo) == 0 || v <= -r.lo[0] {
		r.lo = heapPush(r.lo, -v)
	} else {
		r.hi = heapPush(r.hi, v)
	}
	n := len(r.lo) + len(r.hi)
	k := int(math.Ceil(r.Q * float64(n)))
	k = max(1, min(k, n))
	for len(r.lo) > k {
		var top float64
		r.lo, top = heapPop(r.lo)
		r.hi = heapPush(r.hi, -top)
	}
	for len(r.lo) < k {
		var top float64
		r.hi, top = heapPop(r.hi)
		r.lo = heapPush(r.lo, -top)
	}
}

// Count returns the number of recorded samples.
func (r *RunningQuantile) Count() int { return len(r.lo) + len(r.hi) }

// Value returns the nearest-rank Q-quantile of the samples so far, or 0
// with no samples.
func (r *RunningQuantile) Value() float64 {
	if len(r.lo) == 0 {
		return 0
	}
	return -r.lo[0]
}

// heapPush appends v to the binary min-heap h and sifts it up.
func heapPush(h []float64, v float64) []float64 {
	h = append(h, v)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

// heapPop removes and returns the minimum of the non-empty min-heap h.
func heapPop(h []float64) ([]float64, float64) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return h, top
}
