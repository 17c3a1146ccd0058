// Profiling runs Chameleon (§3) against a custom workload built with the
// public Profile API, and prints the page-temperature heat map and
// re-access distribution the paper uses to argue for tiered memory.
package main

import (
	"fmt"
	"log"

	"tppsim"
	"tppsim/internal/chameleon"
	"tppsim/internal/mem"
	"tppsim/internal/metrics"
	"tppsim/internal/workload"
)

func main() {
	// A custom service: a hot in-memory index, a long-tail document
	// cache, and request-scratch churn.
	custom := &tppsim.Profile{
		PName:  "SearchNode",
		TM:     metrics.ThroughputModel{CPUServiceNs: 900, StallsPerOp: 1},
		Warmup: 3 * workload.TicksPerMinute,
		Specs: []workload.RegionSpec{
			{
				Name: "index", Type: mem.Anon,
				Pages:  20 * 1024,
				Weight: 0.55, HotFraction: 0.35, HotWeight: 0.95,
			},
			{
				Name: "doc-cache", Type: mem.File,
				Pages:  28 * 1024,
				Weight: 0.35, HotFraction: 0.08, HotWeight: 0.9,
				DirtyProb:       0.2,
				PrefaultPerTick: 28 * 1024 / (3 * workload.TicksPerMinute),
			},
			{
				Name: "request-scratch", Type: mem.Anon,
				Pages:         4 * 1024,
				Weight:        0.10,
				ChurnSegments: 16, ChurnTicks: 5, RecencyBias: 0.6,
			},
		},
	}

	m, err := tppsim.NewMachine(tppsim.MachineConfig{
		Seed:            1,
		Policy:          tppsim.DefaultLinux(),
		Workload:        custom,
		Topology:        tppsim.TopologyCXL(1, 0), // profile on an ordinary host
		Minutes:         25,
		EnableChameleon: true,
		// The simulated access stream is pre-sampled, so PEBS's 1-in-200
		// corresponds to 1-in-2 here.
		ChameleonConfig: chameleon.Config{SampleRate: 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	m.Run()

	rep := m.Chameleon().Report(custom.PName)
	fmt.Print(rep.String())
	fmt.Println("\nreading the report: pages hot only at 5-10 minute windows (or cold)")
	fmt.Println("are offload candidates; a large cold band means a CXL tier can absorb")
	fmt.Println("much of this working set without hurting the hot path.")
}
