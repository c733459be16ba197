package experiments

import "fmt"

// AvailabilityRow summarizes one fault-rate operating point.
type AvailabilityRow struct {
	// FailRate is the total fabric fault rate (events/s), split evenly
	// between switch crashes and link flaps.
	FailRate float64
	// Query accounting: Submitted = Completed + Lost + Shed + Orphans.
	// Orphans must be zero after the drained run — every query terminates.
	// Shed stays zero unless the base scenario enables Admission.
	Submitted int
	Completed int
	Lost      int
	Shed      int
	Orphans   int
	// Recovery machinery counters.
	Retries    int
	Timeouts   int
	DroppedSub int   // dropped sub-query messages (either direction)
	MsgDropped int64 // network-wide message-level drops (incl. background)
	// Goodput is Completed/Submitted; StrictMissRate counts lost queries
	// as SLA misses over all terminated queries.
	Goodput        float64
	StrictMissRate float64
	// P95S is the 95th-percentile end-to-end latency of completed queries.
	P95S float64
	// Controller repair activity.
	Repaired      int
	FailedRepairs int
	Emergencies   int
	// FaultsInjected counts applied fail/repair events.
	FaultsInjected int
	// ActiveSwitches of the initial consolidation.
	ActiveSwitches int
}

// AvailabilitySweep runs the availability experiment across fault rates:
// a consolidated fat-tree serves Poisson partition-aggregate queries while
// a seeded schedule of switch crashes and link flaps (rate split evenly)
// degrades the powered subnet. The controller repairs routes on every
// fault event (escalating to an emergency full-fabric power-on when the
// consolidated subnet is partitioned), and the cluster's timeout/retry
// machinery re-sends sub-queries lost in transients. After the traffic
// window the engine drains completely, so every submitted query terminates
// as completed or lost — Orphans is asserted zero by the harness tests.
//
// base supplies every other axis (defaults: 5 s, 40 queries/s, seed 1,
// the minimal subnet, no background); cell i runs at Seed+i. Cells are
// independent simulations, so rows are identical for every worker count.
func AvailabilitySweep(failRates []float64, base Scenario, workers int) ([]AvailabilityRow, error) {
	base = sweepDefaults(base, "avail-bg", 5, 40)
	specs := make([]Scenario, len(failRates))
	for i, rate := range failRates {
		s := base
		s.Seed += int64(i)
		f := Faults{}
		if base.Faults != nil {
			f = *base.Faults
		}
		f.Rate = rate
		s.Faults = &f
		specs[i] = s
	}
	reps, err := runScenarios(specs, workers, func(i int) string { return fmt.Sprintf("fail rate %.3g", failRates[i]) })
	if err != nil {
		return nil, err
	}
	rows := make([]AvailabilityRow, len(reps))
	for i, r := range reps {
		st := r.Stats
		rows[i] = AvailabilityRow{
			FailRate:       failRates[i],
			Submitted:      st.QueriesSubmitted,
			Completed:      st.Queries,
			Lost:           st.QueriesLost,
			Shed:           st.QueriesShed,
			Orphans:        st.Orphans(),
			Retries:        st.Retries,
			Timeouts:       st.Timeouts,
			DroppedSub:     st.DroppedSub,
			MsgDropped:     r.MsgDropped,
			Goodput:        st.Goodput(),
			StrictMissRate: st.StrictMissRate(),
			P95S:           st.QueryLatency.Quantile(0.95),
			Repaired:       r.Repaired,
			FailedRepairs:  r.FailedRepairs,
			Emergencies:    r.Emergencies,
			FaultsInjected: r.FaultsInjected,
			ActiveSwitches: r.ActiveSwitches,
		}
	}
	return rows, nil
}

// AvailabilityTable renders the sweep for the CLI harnesses.
func AvailabilityTable(rows []AvailabilityRow) *Table {
	t := &Table{
		Title: "Availability under fault injection — consolidated subnet with route repair + sub-query retry",
		Headers: []string{"fail/s", "submitted", "completed", "lost", "orphans", "retries",
			"dropped msgs", "goodput", "strict miss", "p95(ms)", "repaired", "emergencies", "faults"},
	}
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%.3g", r.FailRate),
			fmt.Sprintf("%d", r.Submitted),
			fmt.Sprintf("%d", r.Completed),
			fmt.Sprintf("%d", r.Lost),
			fmt.Sprintf("%d", r.Orphans),
			fmt.Sprintf("%d", r.Retries),
			fmt.Sprintf("%d", r.MsgDropped),
			Pct(r.Goodput),
			Pct(r.StrictMissRate),
			Ms(r.P95S),
			fmt.Sprintf("%d", r.Repaired),
			fmt.Sprintf("%d", r.Emergencies),
			fmt.Sprintf("%d", r.FaultsInjected),
		)
	}
	return t
}
