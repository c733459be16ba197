package main

// layerMetrics computes the per-layer metrics of a traced repetition from
// the tracer, the drained stack, and the usage and Go runtime snapshots
// taken at the start (0), end of set-up (1) and end of the run (2).
// trace.overhead_pct needs an untraced repetition and is filled in by the
// parent.
func (s *stack) layerMetrics(u0, u1, u2 usage, g0, g1, g2 goRuntime) map[string]float64 {
	tr := s.tr
	st := s.cl.Stats()
	resolved := float64(s.resolved())
	perQuery := func(v float64) float64 {
		if resolved == 0 {
			return 0
		}
		return v / resolved
	}
	m := map[string]float64{}

	m["sim.run_self_s"] = tr.selfSeconds("sim.run")
	m["sim.live_events_max"] = float64(s.liveMax)
	m["sim.events"] = float64(s.eng.Processed)

	var linkBytes int64
	for _, b := range s.net.LinkBytesInto(nil) {
		linkBytes += b
	}
	m["netsim.bytes_per_query"] = perQuery(float64(linkBytes))
	m["netsim.packets_dropped"] = float64(s.net.Dropped)
	m["netsim.msgs_dropped"] = float64(s.net.MsgDropped)
	m["topology.arena_segments"] = float64(s.net.Arena().NumSegments())
	m["topology.arena_hops"] = float64(s.net.Arena().NumHops())
	m["fattree.resolve_calls"] = float64(tr.calls[callResolve].n)
	m["fattree.resolve_s"] = tr.callSeconds(callResolve)

	var requests int
	var busy float64
	for _, srv := range s.cl.Servers() {
		requests += srv.Stats().Completed
		busy += srv.Stats().BusyBaseSeconds
	}
	m["server.requests"] = float64(requests)
	m["server.peak_queue"] = float64(s.cl.PeakQueue())
	m["server.busy_sim_s"] = busy
	m["dvfs.decisions"] = float64(tr.calls[callDecide].n)
	m["dvfs.decide_s"] = tr.callSeconds(callDecide)
	m["dvfs.decide_ns_mean"] = tr.meanNs(callDecide)
	m["dvfs.saturations"] = float64(s.cl.SaturationEpochs())

	m["core.train_s"] = tr.spanSeconds("setup.train")
	if s.table != nil {
		m["core.train_cells"] = float64(len(s.table.Utils) * len(s.table.Budgets))
	}
	m["core.optimize_calls"] = float64(tr.calls[callOptimize].n)
	m["core.optimize_s"] = tr.callSeconds(callOptimize)

	m["controller.repair_calls"] = float64(tr.calls[callRepair].n)
	m["controller.repair_s"] = tr.callSeconds(callRepair)
	if c := s.ctl; c != nil {
		m["controller.applied"] = float64(c.Applied)
		m["controller.failures"] = float64(c.Failures)
		m["controller.repaired_routes"] = float64(c.RepairedRoutes)
		m["controller.emergencies"] = float64(c.Emergencies)
		m["controller.stranded_rejects"] = float64(c.StrandedRejects)
	}

	m["consolidate.place_s"] = tr.spanSeconds("setup.placement")
	switch {
	case s.placed != nil:
		m["consolidate.active_switches"] = float64(s.placed.Active.ActiveSwitches())
	case s.ctl != nil && s.ctl.LastResult != nil:
		m["consolidate.active_switches"] = float64(s.ctl.LastResult.Active.ActiveSwitches())
	}

	m["cluster.new_s"] = tr.spanSeconds("setup.cluster")
	m["cluster.submit_calls"] = float64(tr.calls[callSubmit].n)
	m["cluster.submit_s"] = tr.callSeconds(callSubmit)
	m["cluster.submit_us_mean"] = tr.meanNs(callSubmit) / 1e3
	attempts := st.SubAttempts
	if s.cl.Cfg.Replicas == 0 {
		// The broadcast tier counts no attempts: each admitted query sends
		// one sub-query per other host, plus its retries.
		attempts = (len(s.cl.Servers())-1)*(st.QueriesSubmitted-st.QueriesShed) + st.Retries
	}
	if st.QueriesSubmitted > 0 {
		m["cluster.sub_attempts_per_query"] = float64(attempts) / float64(st.QueriesSubmitted)
	}
	m["cluster.failovers"] = float64(st.Failovers)
	m["cluster.retries"] = float64(st.Retries)
	m["cluster.timeouts"] = float64(st.Timeouts)
	m["cluster.hedges"] = float64(st.Hedges)
	if st.Hedges > 0 {
		m["cluster.hedge_win_ratio"] = float64(st.HedgeWins) / float64(st.Hedges)
	}
	m["cluster.goodput"] = st.Goodput()
	m["cluster.lost"] = float64(st.QueriesLost)
	if s.inj != nil {
		m["faults.injected"] = float64(s.inj.Injected)
	}

	m["go.alloc_bytes_per_query"] = perQuery(g2.allocBytes - g1.allocBytes)
	m["go.gc_cycles"] = g2.gcCycles - g0.gcCycles
	m["go.gc_cpu_s"] = g2.gcCPUs - g0.gcCPUs

	wall := u2.wall.Sub(u0.wall).Seconds()
	m["run.wall_s"] = u2.wall.Sub(u1.wall).Seconds()
	m["setup.wall_s"] = u1.wall.Sub(u0.wall).Seconds()
	if wall > 0 {
		m["run.steal_ratio"] = 1 - (u2.cpu-u0.cpu).Seconds()/wall
	}
	return m
}
