package experiments

import (
	"strings"
	"testing"

	"eprons/internal/core"
	"eprons/internal/fattree"
)

func TestTableString(t *testing.T) {
	tb := &Table{Title: "demo", Headers: []string{"a", "bbbb"}}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	s := tb.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "333") {
		t.Fatalf("render:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines %d:\n%s", len(lines), s)
	}
}

func TestFormatters(t *testing.T) {
	if Ms(0.0305) != "30.500" {
		t.Fatalf("Ms: %s", Ms(0.0305))
	}
	if Us(125e-6) != "125.0" {
		t.Fatalf("Us: %s", Us(125e-6))
	}
	if W(36.04) != "36.0" {
		t.Fatalf("W: %s", W(36.04))
	}
	if Pct(0.3125) != "31.2%" && Pct(0.3125) != "31.3%" {
		t.Fatalf("Pct: %s", Pct(0.3125))
	}
}

func TestFig01KneeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	pts, err := Fig01Knee([]float64{0.2, 0.6, 0.92}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points %d", len(pts))
	}
	if !(pts[0].MeanS < pts[1].MeanS && pts[1].MeanS < pts[2].MeanS) {
		t.Fatalf("latency not increasing: %+v", pts)
	}
	// The knee: the last step must dominate.
	if (pts[2].MeanS - pts[1].MeanS) < 2*(pts[1].MeanS-pts[0].MeanS) {
		t.Fatalf("no knee: %+v", pts)
	}
	for _, p := range pts {
		if p.P99S < p.P95S || p.P95S < p.MeanS*0.5 {
			t.Fatalf("percentile ordering broken: %+v", p)
		}
	}
}

func TestFig02Demo(t *testing.T) {
	rows, ft, results, err := Fig02ScaleDemo()
	if err != nil {
		t.Fatal(err)
	}
	if ft == nil || len(results) != 3 {
		t.Fatal("missing artifacts")
	}
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	// Paper: sharing count 2 → 1 → 0 as K grows; switches non-decreasing.
	if rows[0].SharedWithBig != 2 || rows[1].SharedWithBig != 1 || rows[2].SharedWithBig != 0 {
		t.Fatalf("sharing pattern %v", rows)
	}
	for i := 1; i < 3; i++ {
		if rows[i].ActiveSwitches < rows[i-1].ActiveSwitches {
			t.Fatalf("switches shrank with K: %v", rows)
		}
	}
}

func TestFig08Flat(t *testing.T) {
	pts := Fig08SwitchPower()
	if len(pts) != 11 {
		t.Fatalf("points %d", len(pts))
	}
	delta := pts[len(pts)-1].PowerW - pts[0].PowerW
	if delta < 0.58 || delta > 0.60 {
		t.Fatalf("delta %g", delta)
	}
}

func TestFig09Rows(t *testing.T) {
	rows, err := Fig09Policies()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{20, 19, 14, 13}
	for i, r := range rows {
		if r.ActiveSwitches != want[i] || !r.Connected {
			t.Fatalf("row %d: %+v", i, r)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	rows, err := Fig10AggregationLatency([]int{0, 3}, []float64{0.25}, Scenario{DurationS: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	if rows[1].P95S <= rows[0].P95S {
		t.Fatalf("aggregation 3 p95 %.1fµs not above aggregation 0 %.1fµs",
			rows[1].P95S*1e6, rows[0].P95S*1e6)
	}
}

func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	rows, err := Fig11ScaleFactor([]int{1, 4}, []float64{0.30}, Scenario{DurationS: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || !rows[0].Feasible || !rows[1].Feasible {
		t.Fatalf("rows %+v", rows)
	}
	// Larger K → at least as many switches and no higher tail latency.
	if rows[1].ActiveSwitches < rows[0].ActiveSwitches {
		t.Fatalf("switches shrank with K: %+v", rows)
	}
	if rows[1].P95S > rows[0].P95S*1.1 {
		t.Fatalf("K=4 tail %.1fµs above K=1 %.1fµs", rows[1].P95S*1e6, rows[0].P95S*1e6)
	}
}

func TestFig12aOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	cfg := DefaultServerExpConfig()
	cfg.Cores = 4
	cfg.DurationS = 15
	pts, err := Fig12aUtilizationSweep([]float64{0.3}, 15e-3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[PolicyName]ServerPoint{}
	for _, p := range pts {
		byName[p.Policy] = p
	}
	if byName[PolEPRONS].CPUPowerW > byName[PolRubik].CPUPowerW {
		t.Fatalf("EPRONS %.2f above Rubik %.2f", byName[PolEPRONS].CPUPowerW, byName[PolRubik].CPUPowerW)
	}
	if byName[PolRubik].CPUPowerW > byName[PolNone].CPUPowerW*1.02 {
		t.Fatalf("Rubik %.2f above no-PM %.2f", byName[PolRubik].CPUPowerW, byName[PolNone].CPUPowerW)
	}
	if byName[PolEPRONS].MissRate > 0.09 {
		t.Fatalf("EPRONS miss rate %.3f", byName[PolEPRONS].MissRate)
	}
}

func TestFig04Curves(t *testing.T) {
	pts, fMax, fAvg, err := Fig04ViolationCurves(12e-3, 18e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 16 {
		t.Fatalf("points %d", len(pts))
	}
	// VP decreases with frequency.
	for i := 1; i < len(pts); i++ {
		if pts[i].AvgVP > pts[i-1].AvgVP+1e-9 {
			t.Fatalf("avg VP not decreasing at %g", pts[i].FreqGHz)
		}
	}
	// The EPRONS frequency is never above the prior-work one.
	if fAvg > fMax {
		t.Fatalf("avg-VP frequency %.1f above max-VP %.1f", fAvg, fMax)
	}
}

func TestFig14Traces(t *testing.T) {
	times, search, bg := Fig14Traces(1440)
	if len(times) != 1440 || len(search) != 1440 || len(bg) != 1440 {
		t.Fatal("lengths")
	}
	for i := range search {
		if search[i] < 0.3-1e-9 || search[i] > 1.0+1e-9 {
			t.Fatalf("search[%d]=%g", i, search[i])
		}
		if bg[i] < 0.1-1e-9 || bg[i] > 0.6+1e-9 {
			t.Fatalf("bg[%d]=%g", i, bg[i])
		}
	}
}

func TestFig13AndFig15(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy")
	}
	eprons, tt, mf, err := TrainTables(true)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Fig13JointPower(eprons, []float64{0.01, 0.20}, []float64{19e-3, 25e-3, 31e-3, 40e-3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*4*4 {
		t.Fatalf("rows %d", len(rows))
	}
	// Power decreases (weakly) with looser constraints within a level.
	for _, bg := range []float64{0.01, 0.20} {
		for level := 0; level < 4; level++ {
			var prev float64 = 1e18
			for _, r := range rows {
				if r.BgUtil != bg || r.Level != level || !r.Feasible {
					continue
				}
				if r.TotalW > prev+1 {
					t.Fatalf("power grew with looser constraint: %+v", r)
				}
				prev = r.TotalW
			}
		}
	}
	// At a generous constraint, deeper aggregation (with low bg) must not
	// cost more than aggregation 0.
	find := func(bg float64, level int, c float64) Fig13Row {
		for _, r := range rows {
			if r.BgUtil == bg && r.Level == level && r.ConstraintS == c {
				return r
			}
		}
		t.Fatalf("missing row")
		return Fig13Row{}
	}
	a0 := find(0.01, 0, 40e-3)
	a3 := find(0.01, 3, 40e-3)
	if !a0.Feasible || !a3.Feasible {
		t.Fatalf("generous constraint infeasible: %+v %+v", a0, a3)
	}
	if a3.TotalW >= a0.TotalW {
		t.Fatalf("aggregation 3 (%.0fW) not below aggregation 0 (%.0fW)", a3.TotalW, a0.TotalW)
	}

	sum, err := Fig15Diurnal(eprons, tt, mf, 300)
	if err != nil {
		t.Fatal(err)
	}
	if sum.EPRONSAvgSaving <= sum.TTAvgSaving {
		t.Fatalf("EPRONS %.3f not above TimeTrader %.3f", sum.EPRONSAvgSaving, sum.TTAvgSaving)
	}
	if sum.EPRONSPeakSaving < sum.EPRONSAvgSaving {
		t.Fatal("peak below average")
	}
}

func TestAblationHeuristicVsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("MILP")
	}
	rows, err := AblationHeuristicVsExact([]int{3, 4}, 1, 1500)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.ExactOptimal && r.ExactSwitches > 0 && r.GreedySwitches > 0 && r.ExactSwitches > r.GreedySwitches {
			t.Fatalf("proven-optimal exact worse than greedy: %+v", r)
		}
	}
}

func TestAblationAvgVsMaxVP(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	cfg := DefaultServerExpConfig()
	cfg.Cores = 4
	cfg.DurationS = 15
	rows, err := AblationAvgVsMaxVP(0.4, 15e-3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows %d", len(rows))
	}
	byName := map[string]AblationPolicyRow{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	eprons := byName["avg-vp edf (eprons)"]
	rubik := byName["max-vp fifo (rubik+)"]
	if eprons.CPUPowerW > rubik.CPUPowerW*1.02 {
		t.Fatalf("avg-vp+edf %.2f above max-vp %.2f", eprons.CPUPowerW, rubik.CPUPowerW)
	}
}

func TestTrainNetTableFeedsPlanner(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	tr, err := TrainNetTable([]int{1, 3}, []float64{0.10, 0.30}, Scenario{DurationS: 1.5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pts := tr.Points()
	if len(pts) != 2 || pts[0] != 1 || pts[1] != 3 {
		t.Fatalf("trained points %v", pts)
	}
	// Measured tails are in the packet simulator's plausible range.
	for _, k := range pts {
		for _, u := range []float64{0.10, 0.30} {
			lat, err := tr.Lookup(k, u)
			if err != nil {
				t.Fatal(err)
			}
			if lat < 50e-6 || lat > 5e-3 {
				t.Fatalf("trained latency %.1fµs out of range (K=%d u=%.2f)", lat*1e6, k, u)
			}
		}
	}
	// A planner given the trained table uses it: its predicted tail for a
	// feasible plan equals a table value rather than the analytic figure.
	eprons, _, _, err := TrainTables(true)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	planner, err := core.NewPlanner(core.DefaultConfig(), ft, eprons)
	if err != nil {
		t.Fatal(err)
	}
	planner.TrainedNet = tr
	plan, err := planner.PlanK(jointFlows(ft, 0.30, 0.10), 0.30)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tr.Lookup(plan.K, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	// The interpolation axis is the plan's worst utilization, which is
	// close to (not exactly) the background fraction; accept the trained
	// table's value range.
	lo, _ := tr.Lookup(plan.K, 0.0)
	hi, _ := tr.Lookup(plan.K, 1.0)
	if hi < lo {
		lo, hi = hi, lo
	}
	if plan.PredNetTailS < lo-1e-9 || plan.PredNetTailS > hi+1e-9 {
		t.Fatalf("plan pred %.1fµs outside trained range [%.1f, %.1f]µs (table@bg10%%=%.1fµs)",
			plan.PredNetTailS*1e6, lo*1e6, hi*1e6, want*1e6)
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Title: "demo", Headers: []string{"a", "b"}}
	tb.AddRow("1", "x,y")
	tb.AddRow("2", `quote"d`)
	csv := tb.CSV()
	want := "# demo\na,b\n1,\"x,y\"\n2,\"quote\"\"d\"\n"
	if csv != want {
		t.Fatalf("csv:\n%q\nwant:\n%q", csv, want)
	}
	if Render(tb, true) != csv {
		t.Fatal("Render(csv) mismatch")
	}
	if Render(tb, false) != tb.String() {
		t.Fatal("Render(text) mismatch")
	}
}

func TestFig05CurvesMonotone(t *testing.T) {
	pts, err := Fig05EquivalentCCDF([]float64{4e-3, 8e-3, 16e-3, 32e-3})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		// Deeper equivalent requests have strictly more work: VP ordering.
		if !(p.VPR1e <= p.VPR2e+1e-12 && p.VPR2e <= p.VPR3e+1e-12) {
			t.Fatalf("VP ordering broken at ω=%g: %+v", p.OmegaS, p)
		}
		// Each curve decreases with the work bound.
		if i > 0 && (p.VPR1e > pts[i-1].VPR1e+1e-12 || p.VPR3e > pts[i-1].VPR3e+1e-12) {
			t.Fatalf("VP not decreasing in ω at %g", p.OmegaS)
		}
	}
}

func TestMeanFreqOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	cfg := DefaultServerExpConfig()
	cfg.Cores = 4
	cfg.DurationS = 10
	pts, err := Fig12aUtilizationSweep([]float64{0.3}, 15e-3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[PolicyName]ServerPoint{}
	for _, p := range pts {
		byName[p.Policy] = p
	}
	if f := byName[PolNone].MeanFreqGHz; f < 2.69 {
		t.Fatalf("no-PM mean frequency %g, want fmax", f)
	}
	if byName[PolEPRONS].MeanFreqGHz >= byName[PolNone].MeanFreqGHz {
		t.Fatal("EPRONS should run slower than no-PM")
	}
	if byName[PolEPRONS].MeanFreqGHz > byName[PolRubik].MeanFreqGHz+0.02 {
		t.Fatalf("EPRONS mean freq %.2f above Rubik %.2f",
			byName[PolEPRONS].MeanFreqGHz, byName[PolRubik].MeanFreqGHz)
	}
}
