package experiments

import (
	"fmt"
	"math"

	"eprons/internal/cluster"
	"eprons/internal/consolidate"
	"eprons/internal/controller"
	"eprons/internal/dvfs"
	"eprons/internal/fattree"
	"eprons/internal/faults"
	"eprons/internal/flow"
	"eprons/internal/metrics"
	"eprons/internal/netsim"
	"eprons/internal/parallel"
	"eprons/internal/power"
	"eprons/internal/rng"
	"eprons/internal/server"
	"eprons/internal/sim"
	"eprons/internal/topology"
	"eprons/internal/workload"
)

// Scenario specifies one simulation of the EPRONS stack (the paper's
// Fig 7): a fat-tree fabric consolidated for the query and background
// demand, a partition-aggregate search cluster on every host, and each
// robustness feature (fault injection, admission control, replication) as
// an independent optional axis. Run builds and drives it; every sweep in
// this package is a list of Scenarios plus a projection of each Report.
type Scenario struct {
	// Name labels the run's random streams: background elephant i draws
	// from rng.Derive(Seed, Name-i).
	Name string
	// K is the fat-tree arity (0 = 4, the paper's testbed). Background
	// elephants grow as k², so k ≥ 8 is where Fluid pays most.
	K int
	// Fluid enables netsim's hybrid fluid/packet background engine:
	// uncongested elephants become analytic link reservations instead of
	// packet events. Off, runs are bit-identical to the packet-only
	// simulator; on, Fig 10 stays inside TestFig10FluidTolerance's band.
	Fluid bool

	// DurationS of query traffic (and fault injection). The engine then
	// drains completely, so every query terminates.
	DurationS float64
	// QueryRate is the offered query rate in queries/s; Surge multiplies
	// it over time (an empty train multiplies by exactly 1).
	QueryRate float64
	Surge     workload.SurgeTrain
	// BgUtil is the per-pod-pair background elephant utilization. 0, the
	// default, runs no background traffic at all.
	BgUtil float64

	// ScaleK is the consolidation scale factor (0 = 1, the minimal
	// subnet).
	ScaleK float64
	// Active, when set, fixes the active set: flows are placed by
	// consolidate.Balance restricted to it and the set is installed as
	// given (Fig 10's aggregation policies). Nil consolidates greedily.
	Active func(*fattree.FatTree) *topology.ActiveSet
	// ECMPQueries routes query pairs on demand over hash-selected active
	// ECMP paths instead of placing one flow per host pair, so only pairs
	// that exchange traffic cost a route — what makes k ≥ 16 fabrics (≥ 1M
	// host pairs) runnable. A pair with no active path fails the run with
	// ErrInfeasible.
	ECMPQueries bool
	// ReserveBps floors the per-pair query reservation handed to the
	// placer: max(demand of QueryRate, ReserveBps, 1 bps).
	ReserveBps float64

	// TimeTrader selects the TimeTrader server policy (1 s period); the
	// default runs every core at maximum frequency.
	TimeTrader bool
	// SubQueryTimeout arms the aggregator retry timer. 0 means
	// DefaultSubQueryTimeoutS; Disabled (negative) disarms the timer.
	SubQueryTimeout float64
	// RetryBudget is the per-query sub-query re-send budget (replicated
	// runs spend it after the R-1 free failovers). 0 means
	// DefaultRetryBudget; Disabled (negative) turns retries off.
	RetryBudget int

	Admission   *Admission
	Replication *Replication
	Faults      *Faults

	// Audit runs the runtime invariant checks (audit.go) on the drained
	// run.
	Audit bool
	Seed  int64
}

// Admission enables the overload control plane: bounded queues, watermark
// admission with background deferral first and query shedding second.
type Admission struct {
	// HighWM overrides the high watermark (0 derives the SLA-aware value).
	HighWM int
	// SurgeResponse lets the controller re-expand the consolidated fabric
	// while the servers saturate, the cluster sheds or the recent p99
	// breaks the SLA, and shrink it back afterwards.
	SurgeResponse bool
}

// Replication places the index R-replicated by consistent hashing with
// pod spreading; the controller's replica guard vetoes any consolidation
// that would strand a partition.
type Replication struct {
	R         int
	Selection cluster.SelectionPolicy
	// HedgeDelayS overrides the hedged policy's duplicate delay (0 tracks
	// the observed sub-query p95).
	HedgeDelayS float64
}

// Faults injects a seeded schedule of switch crashes and link flaps (the
// rate split evenly, mean outage faultRepairMeanS); the controller repairs
// routes on every event.
type Faults struct {
	// Rate is the total fault rate in events/s.
	Rate float64
	// FailEdge lets edge switches crash too, isolating hosts outright.
	FailEdge bool
}

// Report is what one Run measured.
type Report struct {
	// Stats are the cluster's query statistics after the drain.
	Stats *cluster.Stats
	// ActiveSwitches of the initial placement.
	ActiveSwitches int
	// PeakQueue is the highest per-server queue depth seen; EndQueue the
	// total backlog the instant traffic stopped.
	PeakQueue        int
	EndQueue         int
	SaturationEpochs int64
	// Power over the traffic window: servers (CPU + static), network (the
	// active set sampled 41 times), and their sum.
	ServerW float64
	NetW    float64
	TotalW  float64
	// MsgDropped counts network-wide message drops (background included).
	MsgDropped int64
	// Controller activity (zero when no feature needs a controller).
	Repaired              int
	FailedRepairs         int
	Emergencies           int
	SurgeExpansions       int
	SurgeReconsolidations int
	StrandedRejects       int
	// FaultsInjected counts applied fail/repair events.
	FaultsInjected int
}

// Constants of the robustness runs that no caller varies.
const (
	faultRepairMeanS = 0.2 // mean outage duration
	ttPeriodS        = 1.0 // TimeTrader adjustment period
	pollsPerRun      = 40  // power-sample and surge-response intervals per traffic window
)

// Run builds the stack a Scenario describes exactly once and drives it:
// fabric → engine → network → cluster → flows → placement → (fault
// injector) → (controller) → traffic → power sampling → drain → audit. Which
// pieces exist follows from the spec's features alone: a controller is
// built only for route repair (Faults), the surge response or the replica
// guard; otherwise the placement is installed directly.
func Run(s Scenario) (Report, error) {
	var rep Report
	if !(s.DurationS > 0) || math.IsInf(s.DurationS, 0) {
		return rep, fmt.Errorf("duration %g s is not positive and finite", s.DurationS)
	}
	if !(s.QueryRate > 0) || math.IsInf(s.QueryRate, 0) {
		return rep, fmt.Errorf("query rate %g is not positive and finite", s.QueryRate)
	}
	ftCfg := fattree.DefaultConfig()
	if s.K != 0 {
		ftCfg.K = s.K
	}
	ft, err := fattree.New(ftCfg)
	if err != nil {
		return rep, err
	}
	eng, net := newNetwork(ft.Graph, s.Fluid)

	d, err := workload.ServiceDist(workload.DefaultServiceConfig())
	if err != nil {
		return rep, err
	}
	policy := func(host, core int) server.Policy { return dvfs.NewMaxFreq() }
	if s.TimeTrader {
		policy = func(host, core int) server.Policy {
			tt := dvfs.NewTimeTrader()
			tt.Period = ttPeriodS
			return tt
		}
	}
	clCfg := cluster.DefaultConfig(d, policy)
	clCfg.CoresPerServer = 2
	clCfg.SubQueryTimeout = resolve(s.SubQueryTimeout, DefaultSubQueryTimeoutS)
	clCfg.RetryBudget = resolve(s.RetryBudget, DefaultRetryBudget)
	if a := s.Admission; a != nil {
		clCfg.AdmissionControl = true
		clCfg.Admission.HighWM = a.HighWM
	}
	if r := s.Replication; r != nil {
		clCfg.Replicas = r.R
		clCfg.Selection = r.Selection
		clCfg.HedgeDelayS = r.HedgeDelayS
		clCfg.Seed = s.Seed
		clCfg.HostPods = make([]int, len(ft.Hosts))
		for i, h := range ft.Hosts {
			clCfg.HostPods[i] = ft.HostPod(h)
		}
	}
	cl, err := cluster.New(net, ft.Hosts, clCfg)
	if err != nil {
		return rep, err
	}

	// Flow set: one reserved flow per ordered host pair (unless ECMP
	// routes them on demand) plus the pod-pair background elephants.
	var bgFlows []flow.Flow
	if s.BgUtil > 0 {
		bgFlows = podPairElephants(ft, s.BgUtil)
	}
	all := bgFlows
	if !s.ECMPQueries {
		reserve := max(cl.QueryDemandBps(s.QueryRate), s.ReserveBps, 1)
		all = append(cl.PairFlows(reserve), bgFlows...)
	}
	ccfg := consolidate.Config{ScaleK: s.ScaleK, SafetyMarginBps: 50e6}
	if ccfg.ScaleK <= 0 {
		ccfg.ScaleK = 1
	}
	var fixed *topology.ActiveSet
	var placed *consolidate.Result
	if s.Active != nil {
		fixed = s.Active(ft)
		ccfg.Restrict = fixed
		placed, err = consolidate.Balance(ft, all, ccfg)
	} else {
		placed, err = consolidate.Greedy(ft, all, ccfg)
	}
	if err != nil {
		return rep, err
	}
	if !placed.Feasible {
		return rep, fmt.Errorf("%w (%d unplaced)", ErrInfeasible, len(placed.Unplaced))
	}
	rep.ActiveSwitches = placed.Active.ActiveSwitches()
	apply := placed
	if fixed != nil {
		cp := *placed
		cp.Active = fixed
		apply = &cp
	}

	var inj *faults.Injector
	var ctl *controller.Controller
	if s.Faults != nil || s.Replication != nil || (s.Admission != nil && s.Admission.SurgeResponse) {
		// Fixed-policy controller: the placement is precomputed and the
		// optimize period exceeds the run, so only the initial
		// application happens; its job is route repair, the surge
		// response and the replica guard.
		ctlCfg := controller.DefaultConfig()
		ctlCfg.OptimizePeriod = s.DurationS + 3600
		ctl, err = controller.New(eng, net,
			controller.OptimizerFunc(func([]flow.Flow) (*consolidate.Result, error) { return apply, nil }),
			all, ctlCfg)
		if err != nil {
			return rep, err
		}
	}
	parts := cl.PartitionHosts()
	if s.Replication != nil {
		ctl.SetReplicaGuard(parts)
	}
	if f := s.Faults; f != nil {
		// The injector interposes on the active-set path before anything
		// is installed, so no configuration bypasses the fault mask.
		// Repairs re-admit suspect replicas: a recovered host rejoins the
		// selection pool the moment its fabric comes back.
		inj = faults.NewInjector(net)
		inj.OnChange = func(ev faults.Event) {
			ctl.RepairRoutes()
			if s.Replication != nil && (ev.Kind == faults.SwitchRepair || ev.Kind == faults.LinkRepair) {
				cl.ReadmitReplicas()
			}
		}
		sched := faults.Generate(ft.Graph, faults.ScheduleConfig{
			Duration:          s.DurationS,
			SwitchFailsPerSec: f.Rate / 2,
			LinkFlapsPerSec:   f.Rate / 2,
			RepairMeanS:       faultRepairMeanS,
			FailEdge:          f.FailEdge,
		}, s.Seed)
		if err := inj.Start(sched); err != nil {
			return rep, err
		}
	}
	if ctl != nil {
		if err := ctl.Start(); err != nil {
			return rep, err
		}
	} else {
		net.SetActive(apply.Active)
		if err := net.InstallRoutes(apply.Paths); err != nil {
			return rep, err
		}
	}
	unrouted := 0
	if s.ECMPQueries {
		if err := net.SetRouteResolver(ecmpResolver(ft, apply.Active, &unrouted)); err != nil {
			return rep, err
		}
	}

	if a := s.Admission; a != nil && a.SurgeResponse {
		// Saturation signal: the DVFS saturation counters advanced since
		// the last poll, OR admission is shedding, OR the recent
		// end-to-end p99 is over the SLA.
		sla := clCfg.ServerBudget + clCfg.NetworkBudget
		latWin := metrics.NewWindow(5 * ttPeriodS)
		cl.OnQueryComplete = func(lat float64) { latWin.Add(eng.Now(), lat) }
		var lastSat int64
		signal := func() bool {
			sat := cl.SaturationEpochs()
			hot := sat > lastSat || cl.Shedding() ||
				latWin.QuantileAtOr(eng.Now(), 0.99, 0) > sla
			lastSat = sat
			return hot
		}
		if err := ctl.StartSurgeResponse(controller.SurgeConfig{CheckPeriod: s.DurationS / pollsPerRun}, signal); err != nil {
			return rep, err
		}
	}

	bgs := make([]*netsim.Background, 0, len(bgFlows))
	for bi, f := range bgFlows {
		demand := func() float64 { return f.DemandBps }
		if s.Admission != nil {
			demand = func() float64 {
				if cl.Deferring() {
					return 0 // defer stage: background yields before queries shed
				}
				return f.DemandBps
			}
		}
		bgs = append(bgs, net.StartBackground(f.ID, demand, rng.Derive(s.Seed, fmt.Sprintf("%s-%d", s.Name, bi))))
	}
	sampler := workload.NewSampler(d, s.Seed+5)
	stop := cl.StartPoisson(func() float64 { return s.QueryRate * s.Surge.At(eng.Now()) }, sampler.Draw, s.Seed+11)

	// Network power is sampled over the traffic window (repairs, surge
	// expansions and emergencies change the active set mid-run); the
	// backlog and CPU energy are snapshot the instant traffic stops,
	// since the drain completes the backlog.
	netWSum, netWSamples := 0.0, 0
	sampleDt := s.DurationS / pollsPerRun
	var sampleNet func()
	sampleNet = func() {
		netWSum += net.Active().NetworkPowerW()
		netWSamples++
		if eng.Now()+sampleDt <= s.DurationS+1e-9 {
			eng.After(sampleDt, sampleNet)
		}
	}
	sampleNet()
	cpuE := 0.0
	eng.Schedule(s.DurationS, func() {
		rep.EndQueue = cl.TotalQueueLen()
		cpuE = cl.CPUEnergyJ(s.DurationS)
	})

	eng.Run(s.DurationS)
	stop()
	if ctl != nil {
		ctl.Stop()
	}
	for _, b := range bgs {
		b.Stop()
	}
	// Drain everything: queued sub-queries, in-flight packets, hedge and
	// retry timers, repair events. Afterwards every query has terminated.
	eng.RunAll()
	if unrouted > 0 {
		return rep, fmt.Errorf("%w: %d query messages found no active ECMP path", ErrInfeasible, unrouted)
	}

	st := cl.Stats()
	if s.Audit {
		if err := auditRun(eng, net, st, true); err != nil {
			return rep, err
		}
		if err := auditReplicaReachability(net, parts); err != nil {
			return rep, err
		}
	}
	rep.Stats = st
	rep.PeakQueue = cl.PeakQueue()
	rep.SaturationEpochs = cl.SaturationEpochs()
	rep.ServerW = cpuE/s.DurationS + float64(len(ft.Hosts))*power.ServerStaticW
	rep.NetW = netWSum / float64(netWSamples)
	rep.TotalW = rep.ServerW + rep.NetW
	rep.MsgDropped = net.MsgDropped
	if ctl != nil {
		rep.Repaired = ctl.RepairedRoutes
		rep.FailedRepairs = ctl.FailedRepairs
		rep.Emergencies = ctl.Emergencies
		rep.SurgeExpansions = ctl.SurgeExpansions
		rep.SurgeReconsolidations = ctl.SurgeReconsolidations
		rep.StrandedRejects = ctl.StrandedRejects
	}
	if inj != nil {
		rep.FaultsInjected = inj.Injected
	}
	return rep, nil
}

// newNetwork builds an event engine and the packet network over g on it.
func newNetwork(g *topology.Graph, fluid bool) (*sim.Engine, *netsim.Network) {
	eng := sim.New()
	cfg := netsim.DefaultConfig()
	cfg.FluidBackground = fluid
	return eng, netsim.New(eng, g, cfg)
}

// sweepDefaults fills the base scenario of a robustness sweep: its
// background-stream label and the sweep's default duration and query
// rate when unset, seed 1 when zero.
func sweepDefaults(s Scenario, name string, durationS, queryRate float64) Scenario {
	if s.Name == "" {
		s.Name = name
	}
	if s.DurationS <= 0 {
		s.DurationS = durationS
	}
	if s.QueryRate <= 0 {
		s.QueryRate = queryRate
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// runScenarios runs independent specs over workers goroutines, keeping
// their order; label names a failing cell in the returned error.
func runScenarios(specs []Scenario, workers int, label func(i int) string) ([]Report, error) {
	return parallel.Map(len(specs), workers, func(i int) (Report, error) {
		r, err := Run(specs[i])
		if err != nil {
			return r, fmt.Errorf("%s: %w", label(i), err)
		}
		return r, nil
	})
}
