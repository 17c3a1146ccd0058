// Quickstart: build a 2:1 CXL tiered-memory machine, run the Cache1
// workload under default Linux and under TPP, and compare.
package main

import (
	"fmt"
	"log"

	"tppsim"
)

func main() {
	for _, policy := range []tppsim.Policy{tppsim.DefaultLinux(), tppsim.TPP()} {
		m, err := tppsim.NewMachine(tppsim.MachineConfig{
			Seed:     1,
			Policy:   policy,
			Workload: tppsim.Workloads["Cache1"](32 * 1024), // 128 MB working set
			Topology: tppsim.TopologyCXL(2, 1),              // local:CXL capacity
			Minutes:  30,
		})
		if err != nil {
			log.Fatal(err)
		}
		res := m.Run()
		fmt.Println(res)
	}
	fmt.Println("\nTPP should serve nearly all traffic from local DRAM and stay")
	fmt.Println("within ~1% of the all-local baseline (paper Table 1).")
}
