// Example tracereplay demonstrates the access-trace record/replay
// engine: capture one workload's access stream to a trace file, then
// replay the identical stream under every placement policy. Because all
// policies see the same recorded events, the comparison is apples to
// apples — differences come from placement decisions alone, not from
// workload randomness.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"tppsim"
)

func main() {
	dir, err := os.MkdirTemp("", "tppsim-trace")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "web1.trace.gz")

	cfg := tppsim.MachineConfig{
		Seed:     1,
		Policy:   tppsim.DefaultLinux(), // the recording policy is irrelevant to the stream
		Workload: tppsim.Workloads["Web1"](16 * 1024),
		Topology: tppsim.TopologyCXL(2, 1),
		Minutes:  20,
	}
	if _, err := tppsim.Record(cfg, path); err != nil {
		fmt.Fprintln(os.Stderr, "record:", err)
		os.Exit(1)
	}
	tr, err := tppsim.OpenTrace(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("recorded %s: %d pages, %d KB on disk\n\n",
		tr.Header.Name, tr.Header.TotalPages, tr.Size()/1024)

	fmt.Printf("%-16s %12s %12s\n", "policy", "throughput", "local")
	for _, p := range []tppsim.Policy{
		tppsim.DefaultLinux(),
		tppsim.NUMABalancing(),
		tppsim.AutoTiering(),
		tppsim.TMOOnly(),
		tppsim.TPP(),
	} {
		cfg.Policy = p
		res, err := tppsim.Replay(path, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, p.Name+":", err)
			os.Exit(1)
		}
		if res.Failed {
			fmt.Printf("%-16s %12s %12s (%s)\n", p.Name, "FAILS", "-", res.FailReason)
			continue
		}
		fmt.Printf("%-16s %11.1f%% %11.1f%%\n",
			p.Name, 100*res.NormalizedThroughput, 100*res.AvgLocalTraffic)
	}
}
