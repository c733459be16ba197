// Package core implements the paper's primary contribution: the EPRONS
// joint server/network power planner. It searches the bandwidth scale
// factor K (paper §IV), trading network power (more active switches) for
// network slack that the EPRONS-Server DVFS policy converts into server
// power savings, minimizing objective (2) — total switch, link and server
// power — subject to the application's tail-latency SLA.
package core

import (
	"fmt"
	"sort"

	"eprons/internal/dist"
	"eprons/internal/dvfs"
	"eprons/internal/parallel"
	"eprons/internal/power"
	"eprons/internal/rng"
	"eprons/internal/server"
	"eprons/internal/sim"
	"eprons/internal/workload"
)

// ServerPowerTable is the trained server power model of §IV-A: "we measure
// the server power consumption for different utilizations and tail latency
// constraints that may then be used to parameterize our model". Entries
// are per-server CPU power (W) plus a feasibility flag (whether the policy
// held the SLA at that operating point).
type ServerPowerTable struct {
	Utils   []float64 // ascending
	Budgets []float64 // ascending, effective server latency budgets (s)
	PowerW  [][]float64
	OK      [][]bool
}

// TrainConfig drives table training.
type TrainConfig struct {
	// ServiceCfg shapes the sub-query service distribution.
	ServiceCfg workload.ServiceConfig
	// Alpha, Cores: server model parameters.
	Alpha float64
	Cores int
	// TargetVP is the SLA miss budget (0.05).
	TargetVP float64
	// MissTolerance marks a cell infeasible when the measured miss rate
	// exceeds TargetVP*MissTolerance (default 1.6, absorbing simulation
	// noise).
	MissTolerance float64
	// Duration is simulated seconds per cell (default 20).
	Duration float64
	// WarmupS excludes initial seconds from the power measurement so
	// feedback policies (TimeTrader) are measured after convergence.
	WarmupS float64
	// Utils and Budgets define the grid.
	Utils   []float64
	Budgets []float64
	// Policy builds the DVFS policy trained into the table (EPRONS-Server
	// for the joint planner; TimeTrader/MaxFreq for baselines).
	Policy func(m *dvfs.Model) server.Policy
	Seed   int64
	// Workers bounds training concurrency across grid cells (0 = one per
	// CPU, matching the historical always-parallel behavior; 1 = strictly
	// sequential). Cells are independently seeded simulations, so the
	// trained table is identical for every value.
	Workers int
}

// DefaultTrainConfig returns the grid used by the experiments: utilization
// 10–60%, effective budgets 6–40 ms.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		ServiceCfg:    workload.DefaultServiceConfig(),
		Alpha:         0.9,
		Cores:         power.CoresPerServer,
		TargetVP:      0.05,
		MissTolerance: 1.6,
		Duration:      20,
		Utils:         []float64{0.10, 0.20, 0.30, 0.40, 0.50, 0.60},
		Budgets:       []float64{6e-3, 8e-3, 10e-3, 12e-3, 15e-3, 20e-3, 25e-3, 30e-3, 40e-3},
		Policy: func(m *dvfs.Model) server.Policy {
			return dvfs.NewEPRONSServer(m, 0.05)
		},
		Seed: 1,
	}
}

func (c *TrainConfig) fill() error {
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("core: alpha %g out of range", c.Alpha)
	}
	if c.Cores <= 0 {
		c.Cores = power.CoresPerServer
	}
	if c.TargetVP <= 0 {
		c.TargetVP = 0.05
	}
	if c.MissTolerance <= 1 {
		c.MissTolerance = 1.6
	}
	if c.Duration <= 0 {
		c.Duration = 20
	}
	if len(c.Utils) == 0 || len(c.Budgets) == 0 {
		return fmt.Errorf("core: empty training grid")
	}
	if !sort.Float64sAreSorted(c.Utils) || !sort.Float64sAreSorted(c.Budgets) {
		return fmt.Errorf("core: training grid must be ascending")
	}
	if c.Policy == nil {
		return fmt.Errorf("core: nil training policy")
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// TrainServerPowerTable measures per-server CPU power over the grid by
// simulating one server per cell under open-loop Poisson sub-query
// arrivals whose deadlines carry the cell's effective budget. Cells are
// independent simulations and run in parallel across the machine's cores;
// per-cell seeding keeps the result identical to a sequential run.
func TrainServerPowerTable(cfg TrainConfig) (*ServerPowerTable, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	base, err := workload.ServiceDist(cfg.ServiceCfg)
	if err != nil {
		return nil, err
	}
	t := &ServerPowerTable{Utils: cfg.Utils, Budgets: cfg.Budgets}
	for range cfg.Utils {
		t.PowerW = append(t.PowerW, make([]float64, len(cfg.Budgets)))
		t.OK = append(t.OK, make([]bool, len(cfg.Budgets)))
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	nb := len(cfg.Budgets)
	err = parallel.ForEach(len(cfg.Utils)*nb, workers, func(i int) error {
		ui, bi := i/nb, i%nb
		p, miss, err := trainCell(cfg, base, cfg.Utils[ui], cfg.Budgets[bi], int64(ui*1000+bi))
		if err != nil {
			return err
		}
		t.PowerW[ui][bi] = p
		t.OK[ui][bi] = miss <= cfg.TargetVP*cfg.MissTolerance
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

func trainCell(cfg TrainConfig, base *dist.Discrete, util, budget float64, seed int64) (float64, float64, error) {
	// One model serves every core of the cell: the cores run on this
	// cell's engine goroutine, and the model is a deterministic cache of
	// convolution powers, so sharing it only saves rebuilding them. Cells
	// run in parallel, so each builds its own.
	m, err := dvfs.NewModel(base, cfg.Alpha, power.FMaxGHz)
	if err != nil {
		return 0, 0, err
	}
	eng := sim.New()
	srv, err := server.New(eng, server.Config{
		Cores:         cfg.Cores,
		Alpha:         cfg.Alpha,
		FMaxGHz:       power.FMaxGHz,
		PolicyFactory: func(int) server.Policy { return cfg.Policy(m) },
	})
	if err != nil {
		return 0, 0, err
	}
	arrivals := rng.Derive(cfg.Seed^seed, "train-arrivals")
	samples := rng.Derive(cfg.Seed^seed, "train-samples")
	rate := server.RateForUtilization(util, cfg.Cores, base.Mean())
	if rate <= 0 {
		return 0, 0, fmt.Errorf("core: degenerate training rate")
	}
	var id int64
	var arrive func()
	arrive = func() {
		now := eng.Now()
		id++
		srv.Enqueue(&server.Request{
			ID:             id,
			Arrival:        now,
			BaseServiceS:   base.Sample(samples.Float64()),
			ServerDeadline: now + budget,
			SlackDeadline:  now + budget,
		})
		if now < cfg.Duration {
			eng.After(arrivals.Exp(1/rate), arrive)
		}
	}
	eng.After(arrivals.Exp(1/rate), arrive)
	warmJ := 0.0
	warmT := 0.0
	if cfg.WarmupS > 0 && cfg.WarmupS < cfg.Duration {
		warmT = cfg.WarmupS
		eng.Schedule(cfg.WarmupS, func() { warmJ = srv.CPUEnergyJ(eng.Now()) })
	}
	eng.Run(cfg.Duration * 1.5)
	eng.RunAll()
	end := eng.Now()
	return srv.CPUPowerWSince(warmJ, warmT, end), srv.Stats().MissRate(), nil
}

// Lookup returns the interpolated per-server CPU power at (util, budget)
// and whether the operating point is SLA-feasible. Utilization clamps to
// the trained range; budgets below the smallest trained value are
// infeasible; budgets above the largest clamp.
func (t *ServerPowerTable) Lookup(util, budget float64) (float64, bool) {
	if len(t.Utils) == 0 || len(t.Budgets) == 0 {
		return 0, false
	}
	if budget < t.Budgets[0] {
		return 0, false
	}
	ui0, ui1, uf := bracket(t.Utils, util)
	bi0, bi1, bf := bracket(t.Budgets, budget)
	p00 := t.PowerW[ui0][bi0]
	p01 := t.PowerW[ui0][bi1]
	p10 := t.PowerW[ui1][bi0]
	p11 := t.PowerW[ui1][bi1]
	p := (1-uf)*((1-bf)*p00+bf*p01) + uf*((1-bf)*p10+bf*p11)
	ok := t.OK[ui0][bi0] && t.OK[ui0][bi1] && t.OK[ui1][bi0] && t.OK[ui1][bi1]
	return p, ok
}

// bracket finds indices (lo, hi) and fraction f for linear interpolation
// with clamping.
func bracket(grid []float64, v float64) (int, int, float64) {
	if v <= grid[0] {
		return 0, 0, 0
	}
	last := len(grid) - 1
	if v >= grid[last] {
		return last, last, 0
	}
	i := sort.SearchFloat64s(grid, v)
	if grid[i] == v {
		return i, i, 0
	}
	lo, hi := i-1, i
	return lo, hi, (v - grid[lo]) / (grid[hi] - grid[lo])
}
