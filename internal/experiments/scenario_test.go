package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"eprons/internal/cluster"
	"eprons/internal/workload"
)

// Feature bits of a combination drawn by the scenario tests.
const (
	withFaults = 1 << iota
	withAdmission
	withReplication
	withBackground
	allFeatures = withFaults | withAdmission | withReplication | withBackground
)

// comboScenario composes the robustness features named by bits over a
// short audited run: edge-switch faults, admission with a 2.5× mid-run
// surge, R-replicated selection, and fluid-engine background elephants.
func comboScenario(bits int, seed int64, faultRate float64, r int, sel cluster.SelectionPolicy) Scenario {
	const dur = 0.5
	s := Scenario{
		Name:      "combo-bg",
		DurationS: dur,
		QueryRate: 200,
		Audit:     true,
		Seed:      seed,
	}
	if bits&withFaults != 0 {
		s.Faults = &Faults{Rate: faultRate, FailEdge: true}
	}
	if bits&withAdmission != 0 {
		s.Admission = &Admission{SurgeResponse: true}
		s.Surge = workload.SurgeTrain{Surges: []workload.Surge{{StartS: dur / 4, DurationS: dur / 2, Magnitude: 2.5}}}
	}
	if bits&withReplication != 0 {
		s.Replication = &Replication{R: r, Selection: sel}
	}
	if bits&withBackground != 0 {
		s.BgUtil = 0.1
		s.Fluid = true
	}
	return s
}

// checkReport asserts the invariants every feature combination must keep
// after the drain (Run's audit checks them too, including last-replica
// reachability of the installed active set; these restate them on the
// report so a silently skipped audit cannot pass).
func checkReport(t *testing.T, label string, r Report) {
	t.Helper()
	st := r.Stats
	if st.QueriesSubmitted == 0 {
		t.Fatalf("%s: no queries submitted", label)
	}
	if o := st.Orphans(); o != 0 {
		t.Fatalf("%s: %d orphans after drain", label, o)
	}
	if st.QueriesSubmitted != st.Queries+st.QueriesLost+st.QueriesShed {
		t.Fatalf("%s: conservation violated: %d != %d + %d + %d",
			label, st.QueriesSubmitted, st.Queries, st.QueriesLost, st.QueriesShed)
	}
	if st.Hedges != st.HedgeWins+st.HedgeWasted {
		t.Fatalf("%s: hedge identity violated: %d != %d + %d", label, st.Hedges, st.HedgeWins, st.HedgeWasted)
	}
	if r.StrandedRejects != 0 {
		t.Fatalf("%s: replica guard vetoed %d consolidations", label, r.StrandedRejects)
	}
}

// Every on/off combination of faults, admission under a surge,
// replication and fluid background composes in one Run and keeps the
// audit invariants.
func TestScenarioFeatureCombos(t *testing.T) {
	if testing.Short() {
		t.Skip("16 packet-level runs")
	}
	specs := make([]Scenario, allFeatures+1)
	for bits := range specs {
		specs[bits] = comboScenario(bits, int64(1+bits), 4, 3, cluster.SelHedged)
	}
	reps, err := runScenarios(specs, 2, func(i int) string { return fmt.Sprintf("features %04b", i) })
	if err != nil {
		t.Fatal(err)
	}
	for bits, r := range reps {
		checkReport(t, fmt.Sprintf("features %04b", bits), r)
	}
	all := reps[allFeatures]
	if all.FaultsInjected == 0 || all.Stats.QueriesShed == 0 || all.Stats.Hedges == 0 {
		t.Fatalf("all-on run left a feature idle: faults %d, shed %d, hedges %d",
			all.FaultsInjected, all.Stats.QueriesShed, all.Stats.Hedges)
	}
	// The all-on combination is worker-count invariant.
	par, err := runScenarios([]Scenario{specs[allFeatures], specs[allFeatures]}, 2,
		func(int) string { return "all features" })
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range par {
		if !reflect.DeepEqual(p, all) {
			t.Fatalf("all-on run differs across workers:\nseq: %+v\npar: %+v", all, p)
		}
	}
}

// FuzzScenario draws feature combinations, seeds, fault rates, replication
// factors and selection policies and asserts the audit invariants on
// every draw.
func FuzzScenario(f *testing.F) {
	f.Add(uint8(allFeatures), int64(1), uint8(4), uint8(2), uint8(2))
	f.Add(uint8(withFaults|withReplication), int64(7), uint8(8), uint8(0), uint8(1))
	f.Add(uint8(withAdmission|withBackground), int64(42), uint8(0), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, bits uint8, seed int64, rate, r, sel uint8) {
		sels := []cluster.SelectionPolicy{cluster.SelPrimary, cluster.SelPowerOfTwo, cluster.SelHedged}
		s := comboScenario(int(bits)&allFeatures, seed, float64(rate%9), 1+int(r)%3, sels[int(sel)%len(sels)])
		label := fmt.Sprintf("features %04b seed %d", int(bits)&allFeatures, seed)
		rep, err := Run(s)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		checkReport(t, label, rep)
	})
}
