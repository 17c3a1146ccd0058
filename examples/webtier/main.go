// Webtier reproduces the §6.1.1 Web1 story: the HHVM-style service floods
// memory with file cache during initialization, filling the local node;
// without TPP the hot anonymous pages that arrive later are trapped on
// CXL-Memory forever. The example prints the local-traffic trajectory for
// default Linux, TPP, and the all-local ideal, plus TPP's demotion and
// promotion counters.
package main

import (
	"fmt"
	"log"

	"tppsim"
	"tppsim/internal/vmstat"
)

func run(policy tppsim.Policy, topo tppsim.Topology) *tppsim.Machine {
	m, err := tppsim.NewMachine(tppsim.MachineConfig{
		Seed:     1,
		Policy:   policy,
		Workload: tppsim.Workloads["Web1"](32 * 1024),
		Topology: topo,
		Minutes:  45,
	})
	if err != nil {
		log.Fatal(err)
	}
	m.Run()
	return m
}

func main() {
	ideal := run(tppsim.DefaultLinux(), tppsim.TopologyCXL(1, 0))
	def := run(tppsim.DefaultLinux(), tppsim.TopologyCXL(2, 1))
	tpp := run(tppsim.TPP(), tppsim.TopologyCXL(2, 1))

	fmt.Println("Web1 on a 2:1 local:CXL machine (fraction of accesses served locally):")
	fmt.Printf("%8s  %10s  %10s  %10s\n", "minute", "all-local", "default", "TPP")
	dSeries, tSeries := def.Results().LocalTraffic, tpp.Results().LocalTraffic
	for i := 0; i < dSeries.Len(); i += 6 {
		fmt.Printf("%8.0f  %10.2f  %10.2f  %10.2f\n",
			dSeries.X[i], 1.0, dSeries.Y[i], tSeries.Y[i])
	}

	fmt.Println("\nrun summary:")
	for _, m := range []*tppsim.Machine{ideal, def, tpp} {
		fmt.Println(" ", m.Results())
	}

	snap := tpp.Stat().Snapshot()
	fmt.Println("\nTPP placement activity (vmstat):")
	for _, c := range []vmstat.Counter{
		vmstat.PgdemoteKswapd, vmstat.PgdemoteAnon, vmstat.PgdemoteFile,
		vmstat.PgpromoteSuccess, vmstat.PgpromoteDemoted, vmstat.NumaHintFaults,
	} {
		fmt.Printf("  %-24s %d\n", c, snap.Get(c))
	}
}
