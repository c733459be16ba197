package core

import "testing"

// BenchmarkTrainServerPowerTable times server power table training on one
// worker: a 2×3 (utilization × budget) grid with 5 simulated seconds per
// cell, EPRONS-Server on the default servers. Nearly all of it is DVFS
// decisions, so it tracks the server-queue-plus-decide layer at the scale
// the joint planner's set-up pays for it.
func BenchmarkTrainServerPowerTable(b *testing.B) {
	cfg := DefaultTrainConfig()
	cfg.Workers = 1
	cfg.Duration = 5
	cfg.Utils = []float64{0.30, 0.60}
	cfg.Budgets = []float64{6e-3, 12e-3, 25e-3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TrainServerPowerTable(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
