package metrics

import (
	"math"
	"testing"
)

// The *Or accessors exist so that control loops polling a window never see
// NaN or a meaningless zero: an empty (or just-evicted) window returns the
// caller's sentinel instead.

func TestQuantileOrEmptyWindow(t *testing.T) {
	w := NewWindow(1)
	if got := w.QuantileOr(0.99, -7); got != -7 {
		t.Fatalf("empty window QuantileOr = %g, want sentinel", got)
	}
	if got := w.MeanOr(-7); got != -7 {
		t.Fatalf("empty window MeanOr = %g, want sentinel", got)
	}
	w.Add(0, 5)
	if got := w.QuantileOr(0.99, -7); got != 5 {
		t.Fatalf("QuantileOr = %g, want 5", got)
	}
	if got := w.MeanOr(-7); got != 5 {
		t.Fatalf("MeanOr = %g, want 5", got)
	}
}

func TestQuantileAtOrEvictedWindow(t *testing.T) {
	w := NewWindow(1)
	w.Add(0, 5)
	// Query far past the span: eviction empties the window mid-query and
	// the sentinel, not a stale sample, reaches the caller.
	if got := w.QuantileAtOr(10, 0.99, -7); got != -7 {
		t.Fatalf("evicted window QuantileAtOr = %g, want sentinel", got)
	}
	if got := w.MeanAtOr(10, -7); got != -7 {
		t.Fatalf("evicted window MeanAtOr = %g, want sentinel", got)
	}
	if w.Count() != 0 {
		t.Fatalf("eviction left %d samples", w.Count())
	}
}

func TestQuantileOrRejectsBadQuantiles(t *testing.T) {
	w := NewWindow(1)
	w.Add(0, 5)
	for _, q := range []float64{math.NaN(), 0, -0.5, 1.0001, math.Inf(1)} {
		if got := w.QuantileOr(q, -7); got != -7 {
			t.Fatalf("QuantileOr(%g) = %g, want sentinel", q, got)
		}
	}
	// q = 1 is the maximum — a valid quantile.
	if got := w.QuantileOr(1, -7); got != 5 {
		t.Fatalf("QuantileOr(1) = %g, want 5", got)
	}
}

// Quantile clamps q > 1 to the maximum, as Tracker.Quantile does.
func TestQuantileClampsAboveOne(t *testing.T) {
	w := NewWindow(1)
	w.Add(0, 5)
	w.Add(0, 3)
	if got := w.Quantile(1.5); got != 5 {
		t.Fatalf("Quantile(1.5) = %g, want the maximum 5", got)
	}
}

func TestGuardedAccessorsNeverNaN(t *testing.T) {
	w := NewWindow(0.5)
	for i := 0; i < 10; i++ {
		now := float64(i) * 0.2
		w.Add(now, float64(i))
		for _, got := range []float64{
			w.QuantileAtOr(now, 0.95, 0),
			w.MeanAtOr(now, 0),
			w.QuantileAtOr(now+5, 0.95, 0), // evicts everything
			w.MeanAtOr(now+5, 0),
		} {
			if math.IsNaN(got) {
				t.Fatalf("guarded accessor returned NaN at step %d", i)
			}
		}
	}
}
