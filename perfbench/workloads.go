package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"

	"eprons/internal/cluster"
	"eprons/internal/consolidate"
	"eprons/internal/controller"
	"eprons/internal/core"
	"eprons/internal/dist"
	"eprons/internal/dvfs"
	"eprons/internal/fattree"
	"eprons/internal/faults"
	"eprons/internal/flow"
	"eprons/internal/metrics"
	"eprons/internal/netsim"
	"eprons/internal/power"
	"eprons/internal/rng"
	"eprons/internal/server"
	"eprons/internal/sim"
	"eprons/internal/topology"
	"eprons/internal/workload"
)

// A workload builds its own stack from the layer APIs and drives it with
// an open-loop query stream in simulated time. The seed feeds only the
// benchmark's generators — query arrivals, service-time draws, background
// packet timing and the fault schedule — so every seed runs the same
// program on different inputs. README.md records why each workload was
// chosen.
type workloadDef struct {
	name string
	// durationS is the simulated span of query arrivals; the run then
	// drains every in-flight event. sliceS is the Engine.Run slice length.
	durationS, sliceS float64
	build             func(s *stack, seed int64) error
}

var workloads = []workloadDef{
	{name: "joint-k4", durationS: 4, sliceS: 0.25, build: buildJoint},
	{name: "fabric-k16", durationS: 4, sliceS: 0.25, build: buildFabric},
	// At 60 simulated seconds the hedge-delay quantile cost makes
	// cluster.submit_s the largest traced layer.
	{name: "replica-hedged", durationS: 60, sliceS: 2, build: buildReplica},
}

func findWorkload(name string) (*workloadDef, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// Workload constants.
const (
	// jointUtil is joint-k4's ISN utilization (core.DiurnalConfig's
	// default PeakUtil).
	jointUtil = 0.5
	// jointOptimizePeriodS compresses the paper's 600 s re-planning period
	// the way examples/quickstart does.
	jointOptimizePeriodS = 1
	bgUtil               = 0.20
	fabricK              = 16
	fabricQueryRate      = 40
	replicaQueryRate     = 200
	replicaFaultsPerSec  = 2
	replicaRepairMeanS   = 0.2
	// The replicated tier's recovery knobs at the repo's sweep defaults.
	replicaTimeoutS    = 100e-3
	replicaRetryBudget = 8
	// fixedSeed seeds program-internal choices (aggregator picks, replica
	// placement, table training) identically for every benchmark seed.
	fixedSeed = 1
)

// stack is one workload's assembled simulation.
type stack struct {
	def       *workloadDef
	durationS float64
	tr        *tracer // nil in untraced runs

	eng     *sim.Engine
	ft      *fattree.FatTree
	net     *netsim.Network
	cl      *cluster.Cluster
	service *dist.Discrete
	ctl     *controller.Controller
	inj     *faults.Injector
	table   *core.ServerPowerTable
	parts   [][]topology.NodeID
	placed  *consolidate.Result
	bgs     []*netsim.Background

	liveMax int
}

// newStack builds a workload's stack for one seed. durationS overrides the
// workload's simulated span when positive (the harness tests run short).
func newStack(def *workloadDef, seed int64, durationS float64, tr *tracer) (*stack, error) {
	s := &stack{def: def, durationS: def.durationS, tr: tr}
	if durationS > 0 {
		s.durationS = durationS
	}
	if err := def.build(s, seed); err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	return s, nil
}

// topology builds the fat-tree, the engine and the network.
func (s *stack) topology(k int, fluid bool) error {
	var err error
	s.tr.phase("setup.topology", func() {
		cfg := fattree.DefaultConfig()
		cfg.K = k
		if s.ft, err = fattree.New(cfg); err != nil {
			return
		}
		s.eng = sim.New()
		ncfg := netsim.DefaultConfig()
		ncfg.FluidBackground = fluid
		s.net = netsim.New(s.eng, s.ft.Graph, ncfg)
		s.service, err = workload.ServiceDist(workload.DefaultServiceConfig())
	})
	return err
}

// newCluster builds the search cluster; traced runs wrap every core's
// DVFS policy to time its decisions.
func (s *stack) newCluster(cfg cluster.Config) error {
	if s.tr != nil {
		inner := cfg.PolicyFactory
		cfg.PolicyFactory = func(host, core int) server.Policy {
			return &timedPolicy{Policy: inner(host, core), tr: s.tr}
		}
	}
	var err error
	s.tr.phase("setup.cluster", func() { s.cl, err = cluster.New(s.net, s.ft.Hosts, cfg) })
	return err
}

// optimizer wraps opt for a traced run.
func (s *stack) optimizer(opt controller.Optimizer) controller.Optimizer {
	if s.tr == nil {
		return opt
	}
	return timedOptimizer{inner: opt, tr: s.tr}
}

// podPairFlows returns one background elephant per ordered pod pair at
// bgUtil of link capacity, spread over each pod's hosts, with flow IDs
// from hosts² up so they never collide with query-pair IDs.
func (s *stack) podPairFlows() []flow.Flow {
	k := s.ft.Cfg.K
	hosts := len(s.ft.Hosts)
	perPod := hosts / k
	id := flow.ID(hosts * hosts)
	var out []flow.Flow
	for sp := 0; sp < k; sp++ {
		for dp := 0; dp < k; dp++ {
			if sp == dp {
				continue
			}
			out = append(out, flow.Flow{
				ID:        id,
				Src:       s.ft.Hosts[sp*perPod+dp%perPod],
				Dst:       s.ft.Hosts[dp*perPod+sp%perPod],
				DemandBps: bgUtil * s.ft.Cfg.LinkCapacityBps,
				Class:     flow.Background,
			})
			id++
		}
	}
	return out
}

// startBackground starts one seeded source per elephant.
func (s *stack) startBackground(flows []flow.Flow, seed int64) {
	for i, f := range flows {
		demand := f.DemandBps
		s.bgs = append(s.bgs, s.net.StartBackground(f.ID, func() float64 { return demand },
			rng.Derive(seed, fmt.Sprintf("perfbench-bg-%d", i))))
	}
}

// startArrivals starts the benchmark's own open-loop query generator: a
// jittered periodic stream at rate queries/s over [0, durationS), query i
// arriving at (i + U_i)/rate with U_i uniform in [0, 1). Every seed sends
// the same number of queries, so seeds change where and when queries land
// and what they cost, not how many there are; a Poisson count would vary
// by ±8 % over fabric-k16's 160 queries and move its memory with it.
// Service times come from the seeded sampler.
func (s *stack) startArrivals(rate float64, seed int64) {
	jitter := rng.Derive(seed, "perfbench-arrivals")
	draw := workload.NewSampler(s.service, seed).Draw
	n := int64(math.Round(rate * s.durationS))
	var i int64
	var next func()
	next = func() {
		if s.tr == nil {
			s.cl.SubmitQuery(draw)
		} else {
			s.tr.enter()
			s.cl.SubmitQuery(draw)
			s.tr.exit(callSubmit, i)
		}
		if i++; i < n {
			s.eng.Schedule((float64(i)+jitter.Float64())/rate, next)
		}
	}
	if n > 0 {
		s.eng.Schedule(jitter.Float64()/rate, next)
	}
}

// run advances simulated time slice by slice to durationS, stops every
// source, and drains the engine.
func (s *stack) run() {
	n := int(math.Ceil(s.durationS/s.def.sliceS - 1e-9))
	for i := 1; i <= n; i++ {
		until := math.Min(float64(i)*s.def.sliceS, s.durationS)
		s.tr.phase("sim.run", func() { s.eng.Run(until) })
		s.liveMax = max(s.liveMax, s.eng.Len())
	}
	for _, b := range s.bgs {
		b.Stop()
	}
	if s.ctl != nil {
		s.ctl.Stop()
	}
	s.tr.phase("sim.run", s.eng.RunAll)
}

// buildJoint assembles the paper's system (Fig 7) on the k=4 testbed:
// 16 hosts of 12-core ISNs under EPRONS-Server DVFS, packet-level
// pod-pair background, and the controller re-planning with the joint
// planner over a server power table trained on the full default grid.
func buildJoint(s *stack, seed int64) error {
	if err := s.topology(4, false); err != nil {
		return err
	}
	train := core.DefaultTrainConfig()
	train.Workers = 1
	var err error
	s.tr.phase("setup.train", func() { s.table, err = core.TrainServerPowerTable(train) })
	if err != nil {
		return err
	}
	if _, err := dvfs.NewModel(s.service, 0.9, power.FMaxGHz); err != nil {
		return err
	}
	ccfg := cluster.DefaultConfig(s.service, func(host, core int) server.Policy {
		m, err := dvfs.NewModel(s.service, 0.9, power.FMaxGHz)
		if err != nil {
			panic(err) // the same arguments were accepted above
		}
		return dvfs.NewEPRONSServer(m, train.TargetVP)
	})
	ccfg.Seed = fixedSeed
	if err := s.newCluster(ccfg); err != nil {
		return err
	}
	hosts := len(s.ft.Hosts)
	rate := server.RateForUtilization(jointUtil, ccfg.CoresPerServer, s.service.Mean()) *
		float64(hosts) / float64(hosts-1)

	bg := s.podPairFlows()
	var planner *core.Planner
	s.tr.phase("setup.routes", func() {
		if planner, err = core.NewPlanner(core.DefaultConfig(), s.ft, s.table); err != nil {
			return
		}
		planner.Workers = 1
		planner.UtilFn = func() float64 { return jointUtil }
		managed := append(s.cl.PairFlows(s.cl.QueryDemandBps(rate)), bg...)
		ctlCfg := controller.DefaultConfig()
		ctlCfg.OptimizePeriod = jointOptimizePeriodS
		if s.ctl, err = controller.New(s.eng, s.net, s.optimizer(planner), managed, ctlCfg); err != nil {
			return
		}
		err = s.ctl.Start()
	})
	if err != nil {
		return err
	}
	s.tr.phase("setup.sources", func() {
		s.startBackground(bg, seed)
		s.startArrivals(rate, seed)
	})
	return nil
}

// buildFabric assembles the k=16 fabric: 1024 MaxFreq 2-core hosts serving
// unreplicated 1023-way fan-out, 240 pod-pair elephants on the fluid
// engine placed once by consolidate.Balance, and query routes resolved on
// demand by hash-probed ECMP. There is no controller.
func buildFabric(s *stack, seed int64) error {
	if err := s.topology(fabricK, true); err != nil {
		return err
	}
	ccfg := cluster.DefaultConfig(s.service, func(int, int) server.Policy { return dvfs.NewMaxFreq() })
	ccfg.CoresPerServer = 2
	ccfg.Seed = fixedSeed
	if err := s.newCluster(ccfg); err != nil {
		return err
	}
	bg := s.podPairFlows()
	var err error
	s.tr.phase("setup.placement", func() {
		s.placed, err = consolidate.Balance(s.ft, bg, consolidate.Config{SafetyMarginBps: 50e6})
	})
	if err != nil {
		return err
	}
	if !s.placed.Feasible {
		return fmt.Errorf("background placement infeasible (%d unplaced)", len(s.placed.Unplaced))
	}
	s.tr.phase("setup.routes", func() {
		if err = s.net.InstallRoutes(s.placed.Paths); err != nil {
			return
		}
		err = s.net.SetRouteResolver(s.resolver())
	})
	if err != nil {
		return err
	}
	s.tr.phase("setup.sources", func() {
		s.startBackground(bg, seed)
		s.startArrivals(fabricQueryRate, seed)
	})
	return nil
}

// resolver returns the on-demand query route source: the active ECMP
// shortest path of the host pair, probed from a hash of the pair over the
// fat-tree's canonical path enumeration.
func (s *stack) resolver() func(flow.ID) topology.Path {
	hosts := int64(len(s.ft.Hosts))
	var buf topology.Path
	resolve := func(fid flow.ID) topology.Path {
		q := int64(fid)
		if q < 0 || q >= hosts*hosts || q/hosts == q%hosts {
			return nil
		}
		src, dst := s.ft.Hosts[q/hosts], s.ft.Hosts[q%hosts]
		np := s.ft.NumPaths(src, dst)
		h := uint64(q)
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		start := int(h % uint64(np))
		active := s.net.Active()
		for t := 0; t < np; t++ {
			buf = s.ft.PathByIndexInto(src, dst, (start+t)%np, buf)
			if active.PathOn(buf) {
				return buf
			}
		}
		return nil
	}
	if s.tr == nil {
		return resolve
	}
	return func(fid flow.ID) topology.Path {
		s.tr.enter()
		p := resolve(fid)
		s.tr.exit(callResolve, int64(fid))
		return p
	}
}

// buildReplica assembles the replicated tier on k=4: R=3 consistent-hash
// placement spread over pods, hedged selection with the default timeout
// and retry budget, MaxFreq 2-core servers, a greedy consolidation held by
// a fixed-policy controller with the replica guard armed, and a seeded
// fault schedule that also crashes edge switches. Every injector change
// runs route repair and re-admits suspect replicas.
func buildReplica(s *stack, seed int64) error {
	if err := s.topology(4, false); err != nil {
		return err
	}
	ccfg := cluster.DefaultConfig(s.service, func(int, int) server.Policy { return dvfs.NewMaxFreq() })
	ccfg.SubQueryTimeout = replicaTimeoutS
	ccfg.RetryBudget = replicaRetryBudget
	ccfg.Replicas = 3
	ccfg.Selection = cluster.SelHedged
	ccfg.Seed = fixedSeed
	ccfg.HostPods = make([]int, len(s.ft.Hosts))
	for i, h := range s.ft.Hosts {
		ccfg.HostPods[i] = s.ft.HostPod(h)
	}
	if err := s.newCluster(ccfg); err != nil {
		return err
	}
	flows := s.cl.PairFlows(math.Max(s.cl.QueryDemandBps(replicaQueryRate), 1))
	var err error
	s.tr.phase("setup.placement", func() {
		s.placed, err = consolidate.Greedy(s.ft, flows, consolidate.Config{ScaleK: 1, SafetyMarginBps: 50e6})
	})
	if err != nil {
		return err
	}
	if !s.placed.Feasible {
		return fmt.Errorf("query placement infeasible (%d unplaced)", len(s.placed.Unplaced))
	}
	s.tr.phase("setup.routes", func() {
		fixed := controller.OptimizerFunc(func([]flow.Flow) (*consolidate.Result, error) { return s.placed, nil })
		ctlCfg := controller.DefaultConfig()
		ctlCfg.OptimizePeriod = s.durationS + 3600
		if s.ctl, err = controller.New(s.eng, s.net, s.optimizer(fixed), flows, ctlCfg); err != nil {
			return
		}
		s.parts = s.cl.PartitionHosts()
		s.ctl.SetReplicaGuard(s.parts)
		// The injector must interpose before the controller installs its
		// first configuration.
		s.inj = faults.NewInjector(s.net)
		s.inj.OnChange = func(faults.Event) {
			if s.tr == nil {
				s.ctl.RepairRoutes()
			} else {
				s.tr.spanCall(callRepair, func() { s.ctl.RepairRoutes() })
			}
			s.cl.ReadmitReplicas()
		}
		sched := faults.Generate(s.ft.Graph, faults.ScheduleConfig{
			Duration:          s.durationS,
			SwitchFailsPerSec: replicaFaultsPerSec / 2,
			LinkFlapsPerSec:   replicaFaultsPerSec / 2,
			RepairMeanS:       replicaRepairMeanS,
			FailEdge:          true,
		}, seed)
		if err = s.inj.Start(sched); err != nil {
			return
		}
		err = s.ctl.Start()
	})
	if err != nil {
		return err
	}
	s.tr.phase("setup.sources", func() { s.startArrivals(replicaQueryRate, seed) })
	return nil
}

// timedPolicy times a DVFS policy's decisions. It forwards saturation
// reports so the cluster's saturation signal is unchanged.
type timedPolicy struct {
	server.Policy
	tr *tracer
}

func (p *timedPolicy) OnDecision(now float64, cur *server.Request, queue []*server.Request) float64 {
	p.tr.enter()
	f := p.Policy.OnDecision(now, cur, queue)
	id := int64(-1)
	if cur != nil {
		id = cur.ID
	} else if len(queue) > 0 {
		id = queue[0].ID
	}
	p.tr.exit(callDecide, id)
	return f
}

func (p *timedPolicy) SaturationCount() int64 {
	if r, ok := p.Policy.(server.SaturationReporter); ok {
		return r.SaturationCount()
	}
	return 0
}

// timedOptimizer times each controller optimization epoch as a span.
type timedOptimizer struct {
	inner controller.Optimizer
	tr    *tracer
}

func (o timedOptimizer) Optimize(flows []flow.Flow) (res *consolidate.Result, err error) {
	o.tr.spanCall(callOptimize, func() { res, err = o.inner.Optimize(flows) })
	return res, err
}

// resolved returns the number of queries that reached a final state.
func (s *stack) resolved() int {
	st := s.cl.Stats()
	return st.Queries + st.QueriesLost + st.QueriesShed
}

// check is one correctness gate of a drained run; err is nil when it holds.
type check struct {
	name string
	err  error
}

// checks runs the correctness gates on the drained stack.
func (s *stack) checks() []check {
	st := s.cl.Stats()
	out := []check{
		{"engine-audit", s.eng.AuditInvariants()},
		{"engine-drained", errIf(s.eng.Len() != 0, "%d live events after drain", s.eng.Len())},
		{"queries-resolved", errIf(st.QueriesSubmitted == 0 || st.Queries == 0,
			"submitted %d, completed %d", st.QueriesSubmitted, st.Queries)},
		{"no-orphans", errIf(st.Orphans() != 0, "%d orphaned queries", st.Orphans())},
		{"hedge-identity", errIf(st.Hedges != st.HedgeWins+st.HedgeWasted,
			"hedges %d != wins %d + wasted %d", st.Hedges, st.HedgeWins, st.HedgeWasted)},
	}
	stranded := consolidate.StrandedPartitions(s.net.Graph(), s.net.Active(), s.parts)
	out = append(out, check{"no-stranded-partitions", errIf(len(stranded) > 0, "partitions %v stranded", stranded)})
	switch s.def.name {
	case "fabric-k16":
		out = append(out, check{"no-message-drops", errIf(s.net.MsgDropped != 0, "%d messages dropped", s.net.MsgDropped)})
	case "joint-k4":
		p, ok := s.table.Lookup(jointUtil, core.DefaultConfig().ServerBudget)
		out = append(out, check{"table-lookup", errIf(!ok || !(p > 0), "Lookup(%g, budget) = %g, %v", jointUtil, p, ok)})
	}
	return out
}

func errIf(bad bool, format string, args ...any) error {
	if bad {
		return fmt.Errorf(format, args...)
	}
	return nil
}

// digest hashes every simulated statistic of the drained stack, each
// printed at %.17g, so two runs compare bit for bit.
func (s *stack) digest() string {
	var b strings.Builder
	put := func(name string, v float64) { fmt.Fprintf(&b, "%s=%.17g\n", name, v) }
	putInt := func(name string, v int64) { put(name, float64(v)) }
	tracker := func(name string, t *metrics.Tracker) {
		putInt(name+".n", int64(t.Count()))
		put(name+".mean", t.Mean())
		for _, q := range []float64{0.5, 0.95, 0.99} {
			put(fmt.Sprintf("%s.q%g", name, q), t.Quantile(q))
		}
		put(name+".max", t.Max())
	}

	now := s.eng.Now()
	put("engine.now", now)
	putInt("engine.processed", s.eng.Processed)

	st := s.cl.Stats()
	for _, c := range []struct {
		name string
		v    int
	}{
		{"submitted", st.QueriesSubmitted}, {"completed", st.Queries}, {"sla_misses", st.SLAMisses},
		{"lost", st.QueriesLost}, {"dropped_sub", st.DroppedSub}, {"retries", st.Retries},
		{"timeouts", st.Timeouts}, {"shed", st.QueriesShed}, {"rejected_sub", st.RejectedSub},
		{"shed_transitions", st.ShedTransitions}, {"sub_attempts", st.SubAttempts},
		{"failovers", st.Failovers}, {"hedges", st.Hedges}, {"hedge_wins", st.HedgeWins},
		{"hedge_wasted", st.HedgeWasted},
	} {
		putInt("cluster."+c.name, int64(c.v))
	}
	tracker("cluster.query_latency", &st.QueryLatency)
	tracker("cluster.net_req", &st.NetReqLat)
	tracker("cluster.net_reply", &st.NetReplyLat)
	tracker("cluster.server_lat", &st.ServerLat)
	tracker("cluster.slack", &st.SlackGranted)
	put("cluster.cpu_energy_j", s.cl.CPUEnergyJ(now))
	putInt("cluster.saturations", s.cl.SaturationEpochs())
	for i, srv := range s.cl.Servers() {
		ss := srv.Stats()
		p := fmt.Sprintf("server%d.", i)
		putInt(p+"completed", int64(ss.Completed))
		putInt(p+"slack_misses", int64(ss.SlackMisses))
		putInt(p+"server_misses", int64(ss.ServerMisses))
		putInt(p+"rejected", int64(ss.Rejected))
		putInt(p+"peak_queue", int64(ss.PeakQueue))
		put(p+"busy_base_s", ss.BusyBaseSeconds)
		put(p+"cpu_energy_j", srv.CPUEnergyJ(now))
		tracker(p+"latency", &ss.ServerLatency)
	}

	for _, c := range []struct {
		name string
		v    int64
	}{
		{"dropped", s.net.Dropped}, {"tail_drops", s.net.TailDrops}, {"offered_bytes", s.net.OfferedBytes},
		{"carried_bytes", s.net.CarriedBytes}, {"msg_dropped", s.net.MsgDropped},
		{"fluid_demotions", s.net.FluidDemotions}, {"fluid_promotions", s.net.FluidPromotions},
	} {
		putInt("netsim."+c.name, c.v)
	}
	lb := s.net.LinkBytesInto(nil)
	ids := make([]int, 0, len(lb))
	for id := range lb {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		putInt(fmt.Sprintf("link%d.bytes", id), lb[topology.LinkID(id)])
	}
	active := s.net.Active()
	putInt("active.switches", int64(active.ActiveSwitches()))
	putInt("active.links", int64(active.ActiveLinks()))
	put("active.power_w", active.NetworkPowerW())
	putInt("arena.segments", int64(s.net.Arena().NumSegments()))
	putInt("arena.hops", int64(s.net.Arena().NumHops()))

	if s.ctl != nil {
		putInt("controller.applied", int64(s.ctl.Applied))
		putInt("controller.failures", int64(s.ctl.Failures))
		putInt("controller.repaired", int64(s.ctl.RepairedRoutes))
		putInt("controller.failed_repairs", int64(s.ctl.FailedRepairs))
		putInt("controller.emergencies", int64(s.ctl.Emergencies))
		putInt("controller.stranded_rejects", int64(s.ctl.StrandedRejects))
	}
	if s.inj != nil {
		putInt("faults.injected", int64(s.inj.Injected))
	}
	if s.table != nil {
		for i := range s.table.PowerW {
			for j, p := range s.table.PowerW[i] {
				put(fmt.Sprintf("table.%d.%d", i, j), p)
				putInt(fmt.Sprintf("table.%d.%d.ok", i, j), boolInt(s.table.OK[i][j]))
			}
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
