package experiments

import (
	"fmt"

	"eprons/internal/cluster"
)

// ReplicaRow summarizes one (replication factor, selection policy, fault
// rate) operating point.
type ReplicaRow struct {
	Replicas  int
	Selection cluster.SelectionPolicy
	// FailRate is the total fabric fault rate (events/s), split evenly
	// between switch crashes (edge tier included) and link flaps.
	FailRate float64
	// Query accounting: Submitted = Completed + Lost + Orphans; Orphans
	// must be zero after the drained run.
	Submitted int
	Completed int
	Lost      int
	Orphans   int
	// Goodput is Completed/Submitted.
	Goodput float64
	// P95S/P99S are end-to-end latency quantiles of completed queries.
	P95S float64
	P99S float64
	// Attempt accounting. SubAttempts counts every sub-query send
	// (first attempts, failovers, retries and hedges); Failovers counts
	// replica-failover re-sends (not charged to the retry budget).
	SubAttempts int
	Failovers   int
	Retries     int
	Timeouts    int
	DroppedSub  int
	// Hedge accounting: Hedges = HedgeWins + HedgeWasted after the drain.
	Hedges      int
	HedgeWins   int
	HedgeWasted int
	// HedgeRate is Hedges over non-hedge attempts — the extra-work
	// fraction the hedging policy paid. WastedFrac is HedgeWasted over all
	// attempts — the share of total work that was a losing duplicate.
	HedgeRate  float64
	WastedFrac float64
	// Joint power over the traffic window: servers (CPU + static),
	// network (sampled active-set power), and their sum.
	ServerW float64
	NetW    float64
	TotalW  float64
	// ActiveSwitches of the initial consolidation.
	ActiveSwitches int
	// Planner and repair activity. StrandedRejects counts consolidations
	// vetoed by the replica guard (an applied run must show zero stranded
	// partitions — the audit asserts reachability directly).
	StrandedRejects int
	Repaired        int
	Emergencies     int
	FaultsInjected  int
}

// ReplicaSweep runs the replicated-tier experiment over the cross product
// of replication factors × selection policies × fault rates. Each cell is
// an independent seeded simulation: a consolidated fat-tree serves Poisson
// partition-aggregate queries over a consistent-hash placed, R-replicated
// index while switches (including edge switches, isolating hosts outright,
// because surviving host loss is exactly what replication buys) crash and
// links flap. The controller repairs routes and re-admits suspect replicas
// on repair events; the consolidation planner is armed with the replica
// guard, so an applied active set can never strand a partition.
//
// base supplies every other axis, including base.Replication's hedge
// delay (defaults: 5 s, 40 queries/s, seed 1, the minimal subnet, no
// background); cell i of the cross product runs at Seed+i.
func ReplicaSweep(replicas []int, selections []cluster.SelectionPolicy, failRates []float64, base Scenario, workers int) ([]ReplicaRow, error) {
	base = sweepDefaults(base, "replica-bg", 5, 40)
	var specs []Scenario
	for _, r := range replicas {
		for _, sel := range selections {
			for _, rate := range failRates {
				s := base
				s.Seed += int64(len(specs))
				repl := Replication{}
				if base.Replication != nil {
					repl = *base.Replication
				}
				repl.R, repl.Selection = r, sel
				s.Replication = &repl
				s.Faults = &Faults{Rate: rate, FailEdge: true}
				specs = append(specs, s)
			}
		}
	}
	reps, err := runScenarios(specs, workers, func(i int) string {
		s := specs[i]
		return fmt.Sprintf("R=%d %v fail rate %.3g", s.Replication.R, s.Replication.Selection, s.Faults.Rate)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]ReplicaRow, len(reps))
	for i, r := range reps {
		s, st := specs[i], r.Stats
		row := ReplicaRow{
			Replicas:        s.Replication.R,
			Selection:       s.Replication.Selection,
			FailRate:        s.Faults.Rate,
			Submitted:       st.QueriesSubmitted,
			Completed:       st.Queries,
			Lost:            st.QueriesLost,
			Orphans:         st.Orphans(),
			Goodput:         st.Goodput(),
			P95S:            st.QueryLatency.Quantile(0.95),
			P99S:            st.QueryLatency.Quantile(0.99),
			SubAttempts:     st.SubAttempts,
			Failovers:       st.Failovers,
			Retries:         st.Retries,
			Timeouts:        st.Timeouts,
			DroppedSub:      st.DroppedSub,
			Hedges:          st.Hedges,
			HedgeWins:       st.HedgeWins,
			HedgeWasted:     st.HedgeWasted,
			ServerW:         r.ServerW,
			NetW:            r.NetW,
			TotalW:          r.TotalW,
			ActiveSwitches:  r.ActiveSwitches,
			StrandedRejects: r.StrandedRejects,
			Repaired:        r.Repaired,
			Emergencies:     r.Emergencies,
			FaultsInjected:  r.FaultsInjected,
		}
		if base := st.SubAttempts - st.Hedges; base > 0 {
			row.HedgeRate = float64(st.Hedges) / float64(base)
		}
		if st.SubAttempts > 0 {
			row.WastedFrac = float64(st.HedgeWasted) / float64(st.SubAttempts)
		}
		rows[i] = row
	}
	return rows, nil
}

// ReplicaTable renders the sweep for the CLI harnesses.
func ReplicaTable(rows []ReplicaRow) *Table {
	t := &Table{
		Title: "Replicated search tier — goodput, tails, duplicate work and joint power vs R × selection × fault rate",
		Headers: []string{"R", "selection", "fail/s", "submitted", "lost", "goodput", "p95(ms)", "p99(ms)",
			"failovers", "hedges", "hedge rate", "wasted", "stranded", "total W"},
	}
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d", r.Replicas),
			r.Selection.String(),
			fmt.Sprintf("%.3g", r.FailRate),
			fmt.Sprintf("%d", r.Submitted),
			fmt.Sprintf("%d", r.Lost),
			Pct(r.Goodput),
			Ms(r.P95S),
			Ms(r.P99S),
			fmt.Sprintf("%d", r.Failovers),
			fmt.Sprintf("%d", r.Hedges),
			Pct(r.HedgeRate),
			Pct(r.WastedFrac),
			fmt.Sprintf("%d", r.StrandedRejects),
			W(r.TotalW),
		)
	}
	return t
}
