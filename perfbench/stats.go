package main

import (
	"regexp"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metricName is the pattern every reported metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the gated metrics of an untraced run, in output order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"queries_per_cpu_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, in output order. README.md
// maps each one to the end-to-end metric it should move.
var perLayer = []metricDef{
	{"sim.run_self_s", "s"},
	{"sim.live_events_max", "count"},
	{"sim.events", "count"},
	{"netsim.bytes_per_query", "B"},
	{"netsim.packets_dropped", "count"},
	{"netsim.msgs_dropped", "count"},
	{"topology.arena_segments", "count"},
	{"topology.arena_hops", "count"},
	{"fattree.resolve_calls", "count"},
	{"fattree.resolve_s", "s"},
	{"server.requests", "count"},
	{"server.peak_queue", "count"},
	{"server.busy_sim_s", "sim_s"},
	{"dvfs.decisions", "count"},
	{"dvfs.decide_s", "s"},
	{"dvfs.decide_ns_mean", "ns"},
	{"dvfs.saturations", "count"},
	{"core.train_s", "s"},
	{"core.train_cells", "count"},
	{"core.optimize_calls", "count"},
	{"core.optimize_s", "s"},
	{"controller.applied", "count"},
	{"controller.failures", "count"},
	{"controller.repair_calls", "count"},
	{"controller.repair_s", "s"},
	{"controller.repaired_routes", "count"},
	{"controller.emergencies", "count"},
	{"controller.stranded_rejects", "count"},
	{"consolidate.place_s", "s"},
	{"consolidate.active_switches", "count"},
	{"cluster.new_s", "s"},
	{"cluster.submit_calls", "count"},
	{"cluster.submit_s", "s"},
	{"cluster.submit_us_mean", "us"},
	{"cluster.sub_attempts_per_query", "count"},
	{"cluster.failovers", "count"},
	{"cluster.retries", "count"},
	{"cluster.timeouts", "count"},
	{"cluster.hedges", "count"},
	{"cluster.hedge_win_ratio", "ratio"},
	{"cluster.goodput", "ratio"},
	{"cluster.lost", "count"},
	{"faults.injected", "count"},
	{"go.alloc_bytes_per_query", "B"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_s", "s"},
	{"run.wall_s", "s"},
	{"setup.wall_s", "s"},
	{"run.steal_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), as Python's statistics.median does. xs is not
// modified. It returns 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so the steadiness report computes the spread the same way the
// acceptance check does. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// usage is a snapshot of the process clock and resource counters.
type usage struct {
	wall   time.Time
	cpu    time.Duration // user + system CPU of the whole process
	maxRSS int64         // kilobytes (Linux ru_maxrss)
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return usage{
		wall:   time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS: ru.Maxrss,
	}
}

// goRuntime is a snapshot of the Go runtime's allocation and GC counters.
type goRuntime struct {
	allocBytes, gcCycles float64
	gcCPUs               float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readGoRuntime() goRuntime {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goRuntime{allocBytes: v(0), gcCycles: v(1), gcCPUs: v(2)}
}
