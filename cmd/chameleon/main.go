// Command chameleon profiles a workload with the paper's lightweight
// user-space characterization tool (§3) and prints the heat-map report:
// hot fractions per page type at 1/2/5/10-minute windows plus the
// re-access distribution.
//
//	chameleon -workload Web1 -minutes 30
//	chameleon -workload Cache2 -rate 100 -groups 2
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tppsim/internal/chameleon"
	"tppsim/internal/core"
	"tppsim/internal/sim"
	"tppsim/internal/tier"
	"tppsim/internal/workload"
)

func main() {
	var (
		wlName  = flag.String("workload", "Web1", "workload: "+strings.Join(workload.Names(), ", "))
		minutes = flag.Int("minutes", 30, "profiling duration (simulated minutes)")
		pages   = flag.Uint64("pages", workload.DefaultTotalPages, "working-set pages")
		seed    = flag.Uint64("seed", 1, "random seed")
		rate    = flag.Int("rate", 200, "PEBS sampling rate (1-in-N)")
		groups  = flag.Int("groups", 4, "core groups for duty cycling")
	)
	flag.Parse()

	ctor, ok := workload.Catalog[*wlName]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q; have %s\n", *wlName, strings.Join(workload.Names(), ", "))
		os.Exit(2)
	}
	m, err := sim.New(sim.Config{
		Seed:            *seed,
		Policy:          core.DefaultLinux(),
		Workload:        ctor(*pages),
		Topology:        tier.PresetCXL(1, 0), // profile on an ordinary host
		Minutes:         *minutes,
		EnableChameleon: true,
		ChameleonConfig: chameleon.Config{SampleRate: *rate, CoreGroups: *groups},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	m.Run()
	fmt.Print(m.Chameleon().Report(*wlName).String())
}
