// Command figdump prints the headline figure series (Fig 10, 11, 13 and
// the Fig 15 diurnal summary) and small cells of the three robustness
// sweeps (availability, overload, replication) at full float64 precision
// (%.17g), one line per data point, to the file given as its argument (or
// stdout with "-").
//
// Its purpose is the simulator's bit-identity contract: any change to the
// event scheduler or packet pipeline must leave every figure untouched, so
// perf PRs dump the series before and after and diff the files:
//
//	go run ./cmd/figdump before.txt
//	<make the change>
//	go run ./cmd/figdump after.txt
//	diff before.txt after.txt   # must be empty
//
// Add -fluid to diff the hybrid fluid/packet background engine's series
// the same way. Sweep cells run one after another here; cell-level
// parallelism (-workers on netsweep and reproduce) is covered by the
// worker-count invariance tests instead.
//
// The sweep shapes are deliberately small (the benchmark configurations,
// a few seconds of CPU) — this is a regression tripwire, not a paper
// reproduction; use cmd/netsweep and cmd/joint for the full figures.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"

	"eprons/internal/cluster"
	"eprons/internal/experiments"
	"eprons/internal/workload"
)

// fields renders every field of a row struct, nested structs flattened in
// declaration order, floats at %.17g.
func fields(v any) string {
	var b strings.Builder
	var walk func(reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Float64:
			fmt.Fprintf(&b, " %.17g", v.Float())
		default:
			fmt.Fprintf(&b, " %v", v.Interface())
		}
	}
	walk(reflect.ValueOf(v))
	return b.String()
}

func dump(w io.Writer, fluid bool) error {
	cfg := experiments.Scenario{DurationS: 1.5, Fluid: fluid}
	rows10, err := experiments.Fig10AggregationLatency([]int{0, 3}, []float64{0.20}, cfg, 1)
	if err != nil {
		return err
	}
	for _, r := range rows10 {
		fmt.Fprintf(w, "fig10 %d %.17g %.17g %.17g %.17g %d\n", r.Level, r.BgUtil, r.MeanS, r.P95S, r.P99S, r.Dropped)
	}
	rows11, err := experiments.Fig11ScaleFactor([]int{1, 4}, []float64{0.30}, cfg, 1)
	if err != nil {
		return err
	}
	for _, r := range rows11 {
		fmt.Fprintf(w, "fig11 %d %.17g %.17g %d %v\n", r.K, r.BgUtil, r.P95S, r.ActiveSwitches, r.Feasible)
	}
	eprons, tt, mf, err := experiments.TrainTables(true)
	if err != nil {
		return err
	}
	rows13, err := experiments.Fig13JointPower(eprons, []float64{0.20}, []float64{19e-3, 31e-3, 40e-3})
	if err != nil {
		return err
	}
	for _, r := range rows13 {
		fmt.Fprintf(w, "fig13 %d %.17g %.17g %v\n", r.Level, r.ConstraintS, r.TotalW, r.Feasible)
	}
	sum, err := experiments.Fig15Diurnal(eprons, tt, mf, 60)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fig15 %.17g %.17g %.17g\n", sum.EPRONSAvgSaving, sum.EPRONSPeakSaving, sum.TTAvgSaving)
	return dumpRobustness(w)
}

// dumpRobustness prints one-second cells of the availability, overload and
// replication sweeps at their default settings.
func dumpRobustness(w io.Writer) error {
	avail, err := experiments.AvailabilitySweep([]float64{0, 1}, experiments.Scenario{DurationS: 1}, 1)
	if err != nil {
		return err
	}
	for _, r := range avail {
		fmt.Fprintf(w, "avail%s\n", fields(r))
	}
	over, err := experiments.OverloadSweep([]float64{1, 3}, workload.SurgeStep,
		experiments.Scenario{DurationS: 1, Admission: &experiments.Admission{SurgeResponse: true}}, 1)
	if err != nil {
		return err
	}
	for _, r := range over {
		fmt.Fprintf(w, "overload%s\n", fields(r))
	}
	repl, err := experiments.ReplicaSweep([]int{1, 3},
		[]cluster.SelectionPolicy{cluster.SelPrimary, cluster.SelHedged},
		[]float64{0, 2}, experiments.Scenario{DurationS: 1}, 1)
	if err != nil {
		return err
	}
	for _, r := range repl {
		fmt.Fprintf(w, "replica%s\n", fields(r))
	}
	return nil
}

func main() {
	fluid := flag.Bool("fluid", false, "hybrid fluid/packet background engine for the packet simulations")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: figdump [-fluid] <out-file|->")
		os.Exit(2)
	}
	var w io.Writer = os.Stdout
	if flag.Arg(0) != "-" {
		f, err := os.Create(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "figdump:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := dump(w, *fluid); err != nil {
		fmt.Fprintln(os.Stderr, "figdump:", err)
		os.Exit(1)
	}
}
