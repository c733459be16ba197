package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"time"
)

// callKind names a high-frequency call the tracer aggregates instead of
// recording one span per call.
type callKind int

const (
	callDecide   callKind = iota // server.Policy.OnDecision (DVFS decide)
	callSubmit                   // cluster.SubmitQuery
	callResolve                  // the netsim route resolver
	callOptimize                 // controller.Optimizer.Optimize (also a span)
	callRepair                   // controller.RepairRoutes (also a span)
	numCallKinds
)

var callNames = [numCallKinds]string{"dvfs.decide", "cluster.submit", "fattree.resolve", "core.optimize", "controller.repair"}

// exemplars is how many of the slowest calls of each aggregated kind are
// kept as spans, with the ID of the query, flow or request they served.
const exemplars = 8

// span is one timed interval of a traced run. Times are nanoseconds since
// the tracer started; Self excludes the time of traced calls nested inside.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 at the root
	ID     int64  `json:"id"`     // query, flow or request ID; -1 when none
}

// callAgg aggregates one call kind: a count, total self time, a log2
// histogram of self times and the slowest calls as exemplar spans.
type callAgg struct {
	n      int64
	selfNs int64
	hist   [64]int64 // hist[b] counts calls with self time in [2^(b-1), 2^b) ns
	slow   []span
}

// frame is an open timed interval on the tracer's stack. child sums the
// durations of the traced intervals nested directly inside it.
type frame struct {
	start int64
	child int64
	span  int // index of the recorded span, or -1 for an aggregated call
}

// tracer times layer calls from outside the program. A nil *tracer is the
// untraced mode: phase and slice helpers run their function untimed, and
// the workloads install no wrappers at all.
type tracer struct {
	origin time.Time
	spans  []span
	frames []frame
	calls  [numCallKinds]callAgg
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// parent returns the innermost open span, or -1.
func (t *tracer) parent() int {
	for i := len(t.frames) - 1; i >= 0; i-- {
		if t.frames[i].span >= 0 {
			return t.frames[i].span
		}
	}
	return -1
}

// begin opens a recorded span.
func (t *tracer) begin(name string) {
	t.spans = append(t.spans, span{Name: name, Parent: t.parent(), ID: -1})
	idx := len(t.spans) - 1
	start := t.now()
	t.spans[idx].Start = start
	t.frames = append(t.frames, frame{start: start, span: idx})
}

// end closes the innermost frame and returns its duration and self time.
func (t *tracer) end() (dur, self int64) {
	now := t.now()
	f := t.frames[len(t.frames)-1]
	t.frames = t.frames[:len(t.frames)-1]
	dur = now - f.start
	self = dur - f.child
	if n := len(t.frames); n > 0 {
		t.frames[n-1].child += dur
	}
	if f.span >= 0 {
		t.spans[f.span].End = now
		t.spans[f.span].Self = self
	}
	return dur, self
}

// phase runs fn inside a span named name.
func (t *tracer) phase(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	t.begin(name)
	fn()
	t.end()
}

// enter opens an aggregated call; exit closes it.
func (t *tracer) enter() {
	t.frames = append(t.frames, frame{start: t.now(), span: -1})
}

func (t *tracer) exit(k callKind, id int64) {
	start := t.frames[len(t.frames)-1].start
	dur, self := t.end()
	a := &t.calls[k]
	a.add(self)
	if len(a.slow) < exemplars || self > a.slow[len(a.slow)-1].Self {
		s := span{Name: callNames[k], Start: start, End: start + dur, Self: self, Parent: t.parent(), ID: id}
		if len(a.slow) < exemplars {
			a.slow = append(a.slow, s)
		} else {
			a.slow[len(a.slow)-1] = s
		}
		for i := len(a.slow) - 1; i > 0 && a.slow[i].Self > a.slow[i-1].Self; i-- {
			a.slow[i], a.slow[i-1] = a.slow[i-1], a.slow[i]
		}
	}
}

// spanCall times a low-frequency call that also gets a span of its own
// (optimizer epochs, route repairs).
func (t *tracer) spanCall(k callKind, fn func()) {
	t.begin(callNames[k])
	fn()
	_, self := t.end()
	t.calls[k].add(self)
}

func (a *callAgg) add(selfNs int64) {
	a.n++
	a.selfNs += selfNs
	a.hist[bits.Len64(uint64(max(selfNs, 0)))]++
}

// selfSeconds sums the self time of the recorded spans named name.
func (t *tracer) selfSeconds(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.Self
		}
	}
	return float64(ns) / 1e9
}

// spanSeconds sums the duration of the recorded spans named name.
func (t *tracer) spanSeconds(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

func (t *tracer) callSeconds(k callKind) float64 { return float64(t.calls[k].selfNs) / 1e9 }

// meanNs returns the mean self time of one call kind in nanoseconds.
func (t *tracer) meanNs(k callKind) float64 {
	if t.calls[k].n == 0 {
		return 0
	}
	return float64(t.calls[k].selfNs) / float64(t.calls[k].n)
}

// write stores the trace as JSON Lines: one "span" record per span (the
// exemplar spans of aggregated calls included), then one "calls" record
// per aggregated call kind with its histogram, then one "metrics" record.
func (t *tracer) write(path string, layer map[string]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(struct {
			Kind string `json:"kind"`
			span
		}{"span", s}); err != nil {
			return err
		}
	}
	for k := callKind(0); k < numCallKinds; k++ {
		a := &t.calls[k]
		for _, s := range a.slow {
			if err := enc.Encode(struct {
				Kind string `json:"kind"`
				span
			}{"exemplar", s}); err != nil {
				return err
			}
		}
		hist := map[string]int64{}
		for b, c := range a.hist {
			if c > 0 {
				hist[fmt.Sprintf("lt_%dns", uint64(1)<<b)] = c
			}
		}
		if err := enc.Encode(map[string]any{
			"kind": "calls", "name": callNames[k], "count": a.n, "self_ns": a.selfNs, "hist": hist,
		}); err != nil {
			return err
		}
	}
	if err := enc.Encode(map[string]any{"kind": "metrics", "metrics": layer}); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
