package main

import (
	"fmt"
	"io"
	"math"
)

// steadiness runs `sets` interleaved sets of every workload — in each set,
// run i of every workload uses seed+i — and prints, per workload and
// end-to-end metric, each set's median and quartiles, the quartile spread
// as a share of the median, and the gap between the first and each later
// set's median. Each run's steal ratio (1 - CPU/wall) is printed beside
// its numbers, so a slow spell on the machine shows where it happened.
func steadiness(w io.Writer, sets, runs int, seed int64, seconds int) error {
	if sets < 1 || runs < 1 || seconds < 1 {
		return fmt.Errorf("steadiness: need --sets, --runs and --seconds >= 1")
	}
	// vals[workload][metric][set] lists the run values.
	vals := map[string]map[string][][]float64{}
	for i := range workloads {
		vals[workloads[i].name] = map[string][][]float64{}
		for _, m := range endToEnd {
			vals[workloads[i].name][m.name] = make([][]float64, sets)
		}
	}
	for set := 0; set < sets; set++ {
		for r := 0; r < runs; r++ {
			for i := range workloads {
				def := &workloads[i]
				res, err := measure(def, seed+int64(r), seconds, false, "")
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "set %d run %d %-14s seed %-4d reps %-2d steal_ratio %.3f", set+1, r+1, def.name, seed+int64(r), len(res.reps), res.stealRatio)
				for _, m := range endToEnd {
					v := res.report.Metrics[m.name].Value
					vals[def.name][m.name][set] = append(vals[def.name][m.name][set], v)
					fmt.Fprintf(w, "  %s %.6g", m.name, v)
				}
				if !res.report.Correct {
					fmt.Fprintf(w, "  FAILED %v", res.failedChecks)
				}
				fmt.Fprintln(w)
			}
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-14s %-18s %-4s %12s %12s %12s %9s %9s\n", "workload", "metric", "set", "median", "q1", "q3", "iqr/med", "gap")
	for i := range workloads {
		name := workloads[i].name
		for _, m := range endToEnd {
			first := median(vals[name][m.name][0])
			for set, vs := range vals[name][m.name] {
				med := median(vs)
				q1, q3 := quartiles(vs)
				gap := "-"
				if set > 0 {
					gap = fmt.Sprintf("%+.2f%%", (med/first-1)*100)
				}
				fmt.Fprintf(w, "%-14s %-18s %-4d %12.6g %12.6g %12.6g %8.2f%% %9s\n",
					name, m.name, set+1, med, q1, q3, spread(q1, q3, med)*100, gap)
			}
		}
	}
	return nil
}

// spread is the quartile distance as a share of the median.
func spread(q1, q3, med float64) float64 {
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / med
}
