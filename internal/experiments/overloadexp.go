package experiments

import (
	"fmt"
	"math"
	"slices"

	"eprons/internal/cluster"
	"eprons/internal/fattree"
	"eprons/internal/workload"
)

// OverloadCell is one (multiplier, admission setting) simulation outcome.
type OverloadCell struct {
	// Query accounting: Submitted = Completed + Shed + Lost + Orphans;
	// Orphans must be zero after the drained run.
	Submitted int
	Completed int
	Shed      int
	Lost      int
	Orphans   int
	// RejectedSub counts bounded-queue refusals at the ISNs (the backstop
	// behind the aggregator watermark); ShedEpisodes counts distinct
	// shedding episodes (hysteresis edges, not per-query rejections).
	RejectedSub  int
	ShedEpisodes int
	// Goodput is Completed/Submitted; ShedRate is Shed/Submitted.
	Goodput  float64
	ShedRate float64
	// P95S/P99S are end-to-end latency quantiles of ADMITTED, completed
	// queries — the population admission control promises to protect.
	P95S float64
	P99S float64
	// AttainRate is the fraction of completed queries inside the
	// end-to-end SLA (server + network budget).
	AttainRate float64
	// PeakQueue is the highest per-server queue depth seen anywhere;
	// EndQueue is the total backlog at the moment traffic stops (the
	// unbounded-growth signature of the no-admission baseline).
	PeakQueue int
	EndQueue  int
	// SaturationEpochs counts DVFS decisions pinned at fmax with the SLA
	// still infeasible — the server-side surge signal.
	SaturationEpochs int64
	// Surge-response activity (zero without Admission.SurgeResponse).
	SurgeExpansions       int
	SurgeReconsolidations int
	// Power over the traffic window [0, DurationS]: servers (CPU +
	// static), network (sampled active-set power), and their sum.
	ServerW float64
	NetW    float64
	TotalW  float64
}

// OverloadRow compares the protected and unprotected systems at one
// offered-load multiplier.
type OverloadRow struct {
	// Multiplier scales the base query rate: ≤1 scales the whole window,
	// >1 arrives as a flash-crowd surge from a quarter of the window to its
	// end.
	Multiplier float64
	// AC is the cell with the overload control plane enabled; NoAC is the
	// unprotected baseline (unbounded queues, no shedding, no surge
	// response).
	AC   OverloadCell
	NoAC OverloadCell
}

// overloadSurgeStartFrac places a flash crowd's onset at this fraction
// of the traffic window; the surge then holds to the end of the window so
// the backlog snapshot at DurationS lands mid-crowd.
const overloadSurgeStartFrac = 0.25

// OverloadSweep runs the flash-crowd experiment across offered-load
// multipliers. Each multiplier runs the same seeded workload twice — with
// the overload control plane and without — so the comparison isolates the
// control plane's effect: bounded tail latency for admitted work at the
// cost of an explicit shed rate, versus unbounded queue growth.
//
// base.QueryRate is the 1× rate (default 200 queries/s, ≈40% utilization
// of the 16-host / 2-core cluster, so 3× is a genuine overload); the query
// pair flows are reserved for it at every multiplier, since a surge is
// exactly the demand the consolidation did not predict. Multipliers ≤ 1
// scale the whole window; multipliers > 1 arrive as a flash crowd shaped
// by profile from a quarter of the window to its end. Servers run
// TimeTrader and the aggregator arms no sub-query timer. The protected
// cell runs base.Admission (or the default control plane when nil), the
// baseline none. Other defaults: 2 s, seed 1; multiplier i runs at
// Seed+i.
func OverloadSweep(multipliers []float64, profile workload.SurgeProfile, base Scenario, workers int) ([]OverloadRow, error) {
	base = sweepDefaults(base, "overload-bg", 2, 200)
	base.TimeTrader = true
	if base.SubQueryTimeout == 0 {
		base.SubQueryTimeout = Disabled
	}
	// Reserve for the 1× rate on the k-ary fabric's k³/4 hosts, whatever
	// rate a cell offers.
	k := base.K
	if k == 0 {
		k = fattree.DefaultConfig().K
	}
	base.ReserveBps = max(base.ReserveBps,
		cluster.DefaultConfig(nil, nil).PairDemandBps(base.QueryRate, k*k*k/4))
	admission := Admission{}
	if base.Admission != nil {
		admission = *base.Admission
	}
	specs := make([]Scenario, 0, 2*len(multipliers))
	for i, mult := range multipliers {
		if !(mult > 0) || math.IsInf(mult, 0) {
			return nil, fmt.Errorf("multiplier %.3g: non-positive offered-load multiplier %g", mult, mult)
		}
		s := base
		s.Seed += int64(i)
		if mult <= 1 {
			s.QueryRate *= mult
		} else {
			start := overloadSurgeStartFrac * s.DurationS
			s.Surge.Surges = append(slices.Clip(base.Surge.Surges), workload.Surge{
				Profile:   profile,
				StartS:    start,
				DurationS: s.DurationS - start,
				Magnitude: mult,
			})
		}
		ac := s
		ac.Admission = &admission
		s.Admission = nil
		specs = append(specs, ac, s)
	}
	reps, err := runScenarios(specs, workers, func(i int) string {
		return fmt.Sprintf("multiplier %.3g (%s)", multipliers[i/2], [2]string{"admission", "baseline"}[i%2])
	})
	if err != nil {
		return nil, err
	}
	rows := make([]OverloadRow, len(multipliers))
	for i, mult := range multipliers {
		rows[i] = OverloadRow{Multiplier: mult, AC: cellOf(reps[2*i]), NoAC: cellOf(reps[2*i+1])}
	}
	return rows, nil
}

// cellOf projects one run onto the overload table's columns.
func cellOf(r Report) OverloadCell {
	st := r.Stats
	return OverloadCell{
		Submitted:             st.QueriesSubmitted,
		Completed:             st.Queries,
		Shed:                  st.QueriesShed,
		Lost:                  st.QueriesLost,
		Orphans:               st.Orphans(),
		RejectedSub:           st.RejectedSub,
		ShedEpisodes:          st.ShedTransitions,
		Goodput:               st.Goodput(),
		ShedRate:              st.ShedRate(),
		P95S:                  st.QueryLatency.Quantile(0.95),
		P99S:                  st.QueryLatency.Quantile(0.99),
		AttainRate:            1 - st.MissRate(),
		PeakQueue:             r.PeakQueue,
		EndQueue:              r.EndQueue,
		SaturationEpochs:      r.SaturationEpochs,
		SurgeExpansions:       r.SurgeExpansions,
		SurgeReconsolidations: r.SurgeReconsolidations,
		ServerW:               r.ServerW,
		NetW:                  r.NetW,
		TotalW:                r.TotalW,
	}
}

// OverloadTable renders the sweep for the CLI harnesses.
func OverloadTable(rows []OverloadRow) *Table {
	t := &Table{
		Title: "Overload control plane under flash crowds — admission+shedding (AC) vs unprotected baseline",
		Headers: []string{"mult", "submitted", "AC shed", "AC goodput", "AC p99(ms)", "AC attain",
			"AC peakQ", "surges", "base p99(ms)", "base attain", "base peakQ", "base endQ", "AC W", "base W"},
	}
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%.2g", r.Multiplier),
			fmt.Sprintf("%d", r.AC.Submitted),
			fmt.Sprintf("%d", r.AC.Shed),
			Pct(r.AC.Goodput),
			Ms(r.AC.P99S),
			Pct(r.AC.AttainRate),
			fmt.Sprintf("%d", r.AC.PeakQueue),
			fmt.Sprintf("%d", r.AC.SurgeExpansions),
			Ms(r.NoAC.P99S),
			Pct(r.NoAC.AttainRate),
			fmt.Sprintf("%d", r.NoAC.PeakQueue),
			fmt.Sprintf("%d", r.NoAC.EndQueue),
			W(r.AC.TotalW),
			W(r.NoAC.TotalW),
		)
	}
	return t
}
