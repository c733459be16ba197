// Command joint regenerates Fig 13: total system power vs request
// tail-latency constraint for each aggregation policy, at low/medium/high
// background traffic and 30% server utilization. It first trains the
// server power table (the §IV-A parameterization), then evaluates the
// joint model — like the paper, the system-level results are scaled
// through models trained from simulation.
//
// Usage:
//
//	joint [-quick] [-bg 0.01,0.20,0.50]
//	joint -twin [-twink 74] [-bg 0.01,0.20,0.50]
//	joint -twincheck [-quick]
//
// The -twin mode answers closed-form what-if capacity queries on an
// arbitrary fat-tree arity (default k=74, a 101,306-host fabric) with no
// simulation at all; -twincheck validates the closed forms against the
// DES on the Fig 10 grid and the trained server table, failing when an
// in-domain cell breaks the pinned error bands.
//
// The fault, overload and replication sweeps live in epronsim.
package main

import (
	"flag"
	"fmt"
	"log"

	"eprons/internal/cli"
	"eprons/internal/experiments"
	"eprons/internal/parallel"
)

func main() {
	quick := flag.Bool("quick", false, "small training grid (faster, coarser)")
	bgArg := flag.String("bg", "0.01,0.20,0.50", "background utilizations (fractions)")
	netScale := flag.Float64("netscale", 25, "network-latency calibration: 25 matches the paper's MiniNet magnitudes, 1 = clean simulator")
	workers := flag.Int("workers", parallel.DefaultWorkers(), "training/evaluation concurrency (cells are independently seeded simulations; <=1 runs sequentially, results are identical either way)")
	twinMode := flag.Bool("twin", false, "answer closed-form what-if capacity queries on a -twink fabric and exit (no simulation, no topology graph)")
	twinK := flag.Int("twink", 74, "fat-tree arity for -twin (74 = 101,306 hosts)")
	twinCheck := flag.Bool("twincheck", false, "validate the closed-form twin against the DES on the Fig 10 grid and the trained server table, then exit (non-zero when an in-domain cell breaks the pinned error bands)")
	csvOut := flag.Bool("csv", false, "emit tables as CSV")
	profile := cli.Profile()
	flag.Parse()
	defer profile()()

	bgs := cli.Must(cli.List(*bgArg, cli.Float))

	if *twinMode {
		t, _, err := experiments.TwinCapacityTable(*twinK, bgs, 0.30)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.Render(t, *csvOut))
		fmt.Println("\nerror bands (validated against the DES on the k=4 Fig 10 grid, see `joint -twincheck`):")
		fmt.Println("  network p95: twin within 0.6x relative error in-domain (consistently optimistic);")
		fmt.Println("  server power: within 0.45x relative error (consistently conservative).")
		fmt.Println("rows marked CLAMPED are outside the validated domain — the bands do not apply there.")
		return
	}

	if *twinCheck {
		sum, err := experiments.TwinCheck(experiments.TwinCheckConfig{
			Quick:   *quick,
			Workers: *workers,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.Render(experiments.TwinCheckTable(sum), *csvOut))
		fmt.Printf("\nin-domain cells %d (net max rel err %.1f%%, server max rel err %.1f%%); out-of-domain cells flagged: %d; feasibility disagreements: %d\n",
			sum.InDomain, sum.NetMaxRel*100, sum.ServerMaxRel*100, sum.Clamped, sum.Disagree)
		if sum.NetMaxRel > experiments.TwinNetRelBand || sum.ServerMaxRel > experiments.TwinServerRelBand {
			log.Fatal("twincheck: in-domain error bands violated")
		}
		return
	}

	fmt.Println("training EPRONS server power table…")
	eprons, _, _, err := experiments.TrainTablesWorkers(*quick, *workers)
	if err != nil {
		log.Fatal(err)
	}

	constraints := []float64{19e-3, 22e-3, 25e-3, 28e-3, 31e-3, 34e-3, 37e-3, 40e-3}
	rows, err := experiments.Fig13JointPowerScaled(eprons, bgs, constraints, *netScale, *workers)
	if err != nil {
		log.Fatal(err)
	}
	for _, bg := range bgs {
		t := &experiments.Table{
			Title:   fmt.Sprintf("Fig 13 — total system power at %s background traffic (30%% server utilization)", experiments.Pct(bg)),
			Headers: []string{"constraint(ms)", "agg 0", "agg 1", "agg 2", "agg 3"},
		}
		for _, c := range constraints {
			cells := []string{experiments.Ms(c)}
			for level := 0; level < 4; level++ {
				cell := "—"
				for _, r := range rows {
					if r.BgUtil == bg && r.Level == level && r.ConstraintS == c {
						if r.Feasible {
							cell = experiments.W(r.TotalW)
						} else {
							cell = "infeasible"
						}
					}
				}
				cells = append(cells, cell)
			}
			t.AddRow(cells...)
		}
		fmt.Print(experiments.Render(t, *csvOut))
		fmt.Println()
	}
}
