// Command epronsim regenerates the headline diurnal experiment: Fig 14's
// 24-hour traces and Fig 15's total-system-power comparison of EPRONS,
// TimeTrader and no power management, reporting average and peak savings
// (the paper: 25% average, 31.25% peak for EPRONS vs 8% / 12.5% for
// TimeTrader).
//
// Usage:
//
//	epronsim [-quick] [-step 60] [-traces]
//	epronsim -faults [-faultrates 0,0.5,1,2] [-faultdur 5] [-faultseed 1] [-audit]
//	epronsim -overload [-overloadmults 0.5,1,2,3] [-overloaddur 2] [-overloadrate 200] [-overloadwm 0] [-surge step] [-surgeresponse] [-audit]
//	epronsim -replicas 1,3 [-selection primary,p2c,hedged] [-hedge 0] [-faultrates 0,1,2] [-audit]
//
// epronsim is the one command for the three robustness sweeps; each
// builds its cells as experiments.Scenario specs.
//
// The -faults mode runs the availability experiment instead: seeded
// switch crashes and link flaps against the consolidated fabric, with
// controller route repair and aggregator sub-query retry, reporting query
// goodput, retries and SLA miss rate per fault rate.
//
// The -overload mode runs the flash-crowd overload sweep: the offered
// query rate is pushed to each multiplier of the base rate and the
// overload control plane (bounded queues, watermark admission + load
// shedding, controller surge response) is compared against the
// unprotected baseline.
//
// The -replicas mode runs the replicated search-tier sweep: the index is
// placed R-replicated by consistent hashing with pod spreading, and
// goodput, tail latency, duplicate work and joint power are compared
// across replication factors × selection policies (-selection) × fault
// rates (-faultrates, edge switches included so hosts genuinely drop
// off). -hedge overrides the hedged policy's duplicate delay (0 tracks
// the observed sub-query p95). -audit enables runtime invariant checks in
// all three modes.
//
// The sweeps run without background traffic, so they have no
// fluid-engine variant; closed-form what-if queries live in `joint -twin`.
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"

	"eprons/internal/cli"
	"eprons/internal/cluster"
	"eprons/internal/experiments"
	"eprons/internal/parallel"
	"eprons/internal/workload"
)

func main() {
	quick := flag.Bool("quick", false, "small training grid (faster, coarser)")
	step := flag.Float64("step", 60, "reporting granularity in seconds (Fig 15 uses 60)")
	tracesOnly := flag.Bool("traces", false, "print only the Fig 14 traces")
	faultsMode := flag.Bool("faults", false, "run the fault-injection availability experiment and exit")
	faultRates := flag.String("faultrates", "0,0.5,1,2", "fault rates to sweep (total fail events/s, split between switch crashes and link flaps)")
	faultDur := flag.Float64("faultdur", 5, "seconds of traffic and fault injection per rate")
	faultSeed := flag.Int64("faultseed", 1, "seed for the fault schedule and workload streams")
	overloadMode := flag.Bool("overload", false, "run the flash-crowd overload experiment and exit")
	overloadMults := flag.String("overloadmults", "0.5,1,2,3", "offered-load multipliers to sweep (x base rate; >1 arrives as a flash crowd)")
	overloadDur := flag.Float64("overloaddur", 2, "seconds of query traffic per multiplier cell")
	overloadRate := flag.Float64("overloadrate", 200, "base (1x) query rate in queries/s")
	overloadSeed := flag.Int64("overloadseed", 1, "seed for the overload workload streams")
	overloadWM := flag.Int("overloadwm", 0, "admission high watermark override (0 derives the SLA-aware default)")
	surgeShape := flag.String("surge", "step", "flash-crowd profile: step, spike or ramp")
	surgeResponse := flag.Bool("surgeresponse", true, "let the controller re-expand the fabric on sustained saturation")
	replicasArg := flag.String("replicas", "", "run the replicated search-tier sweep over these replication factors (e.g. 1,3) and exit; uses -faultrates/-faultdur/-faultseed for the fault axis")
	selectionArg := flag.String("selection", "primary", "replica selection policies to sweep: primary, p2c and/or hedged (comma separated)")
	hedgeDelay := flag.Float64("hedge", 0, "hedged-policy duplicate delay in seconds (0 = track the observed sub-query p95)")
	audit := flag.Bool("audit", false, "run runtime invariant checks (query conservation, offered>=carried bytes, hedge accounting, replica reachability, scheduler bookkeeping) after each cell")
	workers := flag.Int("workers", parallel.DefaultWorkers(), "concurrency for table training, the per-scheme diurnal replays, the planner's K search and the sweep cells (<=1 runs sequentially, results are identical either way)")
	csvOut := flag.Bool("csv", false, "emit tables as CSV")
	profile := cli.Profile()
	flag.Parse()
	defer profile()()

	var t *experiments.Table
	switch {
	case *replicasArg != "":
		t = experiments.ReplicaTable(cli.Must(experiments.ReplicaSweep(
			cli.Must(cli.List(*replicasArg, strconv.Atoi)),
			cli.Must(cli.List(*selectionArg, cluster.ParseSelection)),
			cli.Must(cli.List(*faultRates, cli.Float)),
			experiments.Scenario{
				DurationS:   *faultDur,
				Replication: &experiments.Replication{HedgeDelayS: *hedgeDelay},
				Audit:       *audit,
				Seed:        *faultSeed,
			}, *workers)))
	case *faultsMode:
		t = experiments.AvailabilityTable(cli.Must(experiments.AvailabilitySweep(
			cli.Must(cli.List(*faultRates, cli.Float)),
			experiments.Scenario{DurationS: *faultDur, Audit: *audit, Seed: *faultSeed}, *workers)))
	case *overloadMode:
		t = experiments.OverloadTable(cli.Must(experiments.OverloadSweep(
			cli.Must(cli.List(*overloadMults, cli.Float)),
			cli.Must(workload.ParseSurgeProfile(*surgeShape)),
			experiments.Scenario{
				DurationS: *overloadDur,
				QueryRate: *overloadRate,
				Admission: &experiments.Admission{HighWM: *overloadWM, SurgeResponse: *surgeResponse},
				Audit:     *audit,
				Seed:      *overloadSeed,
			}, *workers)))
	case *tracesOnly:
		printTraces(*csvOut)
		return
	default:
		fig15(*quick, *step, *workers, *csvOut)
		return
	}
	fmt.Print(experiments.Render(t, *csvOut))
}

func fig15(quick bool, step float64, workers int, csv bool) {
	fmt.Println("training server power tables (EPRONS, TimeTrader, MaxFreq)…")
	eprons, tt, mf, err := experiments.TrainTablesWorkers(quick, workers)
	if err != nil {
		log.Fatal(err)
	}
	sum, err := experiments.Fig15DiurnalWorkers(eprons, tt, mf, step, workers)
	if err != nil {
		log.Fatal(err)
	}
	res := sum.Result

	t := &experiments.Table{
		Title:   "Fig 15(a) — total system power over 24 h (hourly rows; simulation at the chosen step)",
		Headers: []string{"hour", "search load", "background", "EPRONS (W)", "TimeTrader (W)", "no PM (W)", "EPRONS net (W)"},
	}
	perHour := int(3600 / step)
	if perHour < 1 {
		perHour = 1
	}
	for i := 0; i < res.EPRONS.TotalW.Len(); i += perHour {
		t.AddRow(
			fmt.Sprintf("%02d:00", int(res.Times[i]/3600)),
			experiments.Pct(res.SearchLoad[i]),
			experiments.Pct(res.BgLoad[i]),
			experiments.W(res.EPRONS.TotalW.V[i]),
			experiments.W(res.TimeTrader.TotalW.V[i]),
			experiments.W(res.NoPM.TotalW.V[i]),
			experiments.W(res.EPRONS.NetW.V[i]),
		)
	}
	fmt.Print(experiments.Render(t, csv))

	fmt.Println("\nFig 15(b) — savings vs no power management:")
	fmt.Printf("  EPRONS:     total avg %s, total peak %s, server avg %s, network avg %s\n",
		experiments.Pct(sum.EPRONSAvgSaving), experiments.Pct(sum.EPRONSPeakSaving),
		experiments.Pct(sum.ServerAvgEPRONS), experiments.Pct(sum.NetAvgEPRONS))
	fmt.Printf("  TimeTrader: total avg %s, total peak %s, server avg %s, network avg 0.0%%\n",
		experiments.Pct(sum.TTAvgSaving), experiments.Pct(sum.TTPeakSaving),
		experiments.Pct(sum.ServerAvgTT))
	fmt.Printf("\npaper reference: EPRONS 25%% avg / 31.25%% peak; TimeTrader 8%% avg / 12.5%% peak\n")
}

func printTraces(csv bool) {
	times, search, bg := experiments.Fig14Traces(48)
	t := &experiments.Table{
		Title:   "Fig 14 — diurnal traces (half-hour samples)",
		Headers: []string{"time", "search load (% of peak)", "background (% of bandwidth)"},
	}
	for i := range times {
		h := int(times[i]) / 3600
		m := (int(times[i]) % 3600) / 60
		t.AddRow(fmt.Sprintf("%02d:%02d", h, m), experiments.Pct(search[i]), experiments.Pct(bg[i]))
	}
	fmt.Print(experiments.Render(t, csv))
}
