// Command experiments regenerates the paper's tables and figures.
// Multiple experiments run concurrently, -workers at a time (default: all
// CPUs); output order is deterministic (registry order) regardless of
// scheduling.
//
//	experiments -list
//	experiments -run Table1
//	experiments -run all -pages 16384 -minutes 40
//	experiments -run all -workers 4
//	experiments -run Fig14 -csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tppsim/internal/experiments"
	"tppsim/internal/prof"
)

func main() {
	var (
		runID   = flag.String("run", "", "experiment ID to run, or 'all'")
		list    = flag.Bool("list", false, "list experiment IDs")
		pages   = flag.Uint64("pages", 0, "working-set pages (default 32768)")
		minutes = flag.Int("minutes", 0, "simulated minutes (default 60)")
		seed    = flag.Uint64("seed", 0, "random seed (default 1)")
		csv     = flag.Bool("csv", false, "print figure series as CSV")
		workers = flag.Int("workers", 0, "number of experiments run at once (default: all CPUs)")
		cpuProf = flag.String("cpuprofile", "", "write a Go CPU profile to FILE")
		memProf = flag.String("memprofile", "", "write a Go heap profile to FILE at exit")
	)
	flag.Parse()

	o := experiments.Options{Pages: *pages, Minutes: *minutes, Seed: *seed}
	if err := o.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	if *list || *runID == "" {
		fmt.Println("experiments:")
		for _, s := range experiments.Registry() {
			fmt.Printf("  %-8s %s\n", s.ID, s.Caption)
		}
		if *runID == "" {
			fmt.Println("\nuse -run <ID> or -run all")
		}
		return
	}

	var specs []experiments.Spec
	if strings.EqualFold(*runID, "all") {
		specs = experiments.Registry()
	} else {
		s, ok := experiments.Find(*runID)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *runID)
			os.Exit(2)
		}
		specs = []experiments.Spec{s}
	}

	for _, res := range experiments.RunAll(specs, o, *workers) {
		fmt.Println(res.Table.String())
		if *csv {
			for _, name := range sortedSeries(res) {
				fmt.Printf("--- series %s/%s ---\n%s", res.ID, name, res.Series[name])
			}
		}
	}
}

func sortedSeries(r experiments.Result) []string {
	out := make([]string, 0, len(r.Series))
	for k := range r.Series {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
