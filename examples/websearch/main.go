// Websearch: the paper's motivating workload in isolation. A 16-host
// partition-aggregate search cluster runs over a consolidated fat-tree,
// once with EPRONS-Server and once with slack-blind Rubik, showing how the
// network-provided slack turns into server power savings at equal SLA.
package main

import (
	"fmt"
	"log"

	"eprons/internal/cluster"
	"eprons/internal/dvfs"
	"eprons/internal/fattree"
	"eprons/internal/netsim"
	"eprons/internal/power"
	"eprons/internal/server"
	"eprons/internal/sim"
	"eprons/internal/workload"
)

func run(policyName string) {
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	eng := sim.New()
	net := netsim.New(eng, ft.Graph, netsim.DefaultConfig())
	base, err := workload.ServiceDist(workload.DefaultServiceConfig())
	if err != nil {
		log.Fatal(err)
	}

	// One model serves every core: they all run on this engine's
	// goroutine, and the model is a deterministic cache.
	m, err := dvfs.NewModel(base, 0.9, power.FMaxGHz)
	if err != nil {
		log.Fatal(err)
	}
	factory := func(host, core int) server.Policy {
		if policyName == "eprons" {
			return dvfs.NewEPRONSServer(m, 0.05)
		}
		return dvfs.NewRubik(m, 0.05)
	}
	cfg := cluster.DefaultConfig(base, factory)
	cfg.CoresPerServer = 4
	// A tight split (10 ms server + 5 ms network) makes frequency choice
	// matter; see Fig 12(b)'s 18–25 ms region.
	cfg.ServerBudget = 10e-3
	c, err := cluster.New(net, ft.Hosts, cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Run over the Aggregation-2 subnet: consolidated but with headroom.
	active := ft.AggregationPolicy(2)
	net.SetActive(active)
	if err := c.InstallShortestRoutes(active); err != nil {
		log.Fatal(err)
	}

	sampler := workload.NewSampler(base, 7)
	stop := c.StartPoisson(func() float64 { return 120 }, sampler.Draw, 11)
	eng.Run(2)
	warmJ := c.CPUEnergyJ(eng.Now()) // exclude the cold start
	eng.Run(20)
	stop()
	eng.Run(21)

	st := c.Stats()
	fmt.Printf("%-8s  queries %5d  req miss %5.2f%% (SLA 5%%)  query p95 %6.2f ms  CPU %6.1f W  slack avg %4.2f ms\n",
		policyName, st.Queries, c.RequestMissRate()*100,
		st.QueryLatency.Quantile(0.95)*1e3, c.CPUPowerWSince(warmJ, 2, eng.Now()),
		st.SlackGranted.Mean()*1e3)
}

func main() {
	fmt.Println("partition-aggregate web search, 16 hosts, aggregation-2 subnet, 120 queries/s")
	fmt.Println("SLA: 15 ms total = 10 ms server + 5 ms network, 95th percentile")
	run("rubik")
	run("eprons")
	fmt.Println("\nEPRONS-Server converts per-request network slack into a lower CPU")
	fmt.Println("frequency while the overall tail stays within the SLA.")
}
