// Custompolicy shows the policy surface: every TPP component is an
// independently switchable mechanism, so "what if" variants are ordinary
// configuration. The example sweeps the §6.2 ablations plus a custom
// variant (demotion without promotion) on the pressured 1:4 Cache1 setup
// and prints what each component contributes.
package main

import (
	"fmt"
	"log"

	"tppsim"
)

func main() {
	// A custom variant built from the policy struct directly: TPP's
	// demotion path without any promotion mechanism.
	demoteOnly := tppsim.TPP()
	demoteOnly.Name = "demotion only (no promotion)"
	demoteOnly.NUMAB.Enabled = false

	variants := []tppsim.Policy{
		tppsim.DefaultLinux(),
		demoteOnly,
		tppsim.TPP(tppsim.WithoutDecoupling()),
		tppsim.TPP(tppsim.WithInstantPromotion()),
		tppsim.TPP(),
	}

	fmt.Println("Cache1 at 1:4 — contribution of each TPP component:")
	fmt.Printf("  %-34s %12s %14s\n", "policy", "throughput", "local traffic")
	for _, p := range variants {
		m, err := tppsim.NewMachine(tppsim.MachineConfig{
			Seed:     1,
			Policy:   p,
			Workload: tppsim.Workloads["Cache1"](32 * 1024),
			Topology: tppsim.TopologyCXL(1, 4),
			Minutes:  40,
		})
		if err != nil {
			log.Fatal(err)
		}
		res := m.Run()
		fmt.Printf("  %-34s %11.1f%% %13.1f%%\n",
			p.Name, 100*res.NormalizedThroughput, 100*res.AvgLocalTraffic)
	}
	fmt.Println("\nExpected ordering (paper §6.2): each mechanism compounds — demotion")
	fmt.Println("alone frees the local node but strands hot pages; promotion without")
	fmt.Println("the active-LRU filter ping-pongs; full TPP converges highest.")
}
