package main

import (
	"fmt"
	"strings"

	"tppsim"
	"tppsim/internal/mem"
	"tppsim/internal/metrics"
	simwl "tppsim/internal/workload"
)

// The workloads are written out here instead of being taken from the
// root SimTickBench*Config helpers, so that editing library code cannot
// change what the benchmark measures.

// warmTicks is how long machine workloads step during set-up: past the
// fill phase of every profile they run (Cache1 warms for 300 ticks,
// Warehouse for 180, the huge heap prefaults in 512).
const warmTicks = 600

// A leg is one machine a run builds and steps. Machine workloads have one
// leg; the Table 1 sweep has one per table cell.
type leg struct {
	cfg   tppsim.MachineConfig
	warm  int // ticks stepped during set-up
	ticks int // ticks stepped in the measured window
	// mayFail marks a machine whose failure is a result, not a failed
	// operation: Table 1 reports AutoTiering's 1:4 crash as "Fails".
	mayFail bool
	// row, col and label place a sweep leg's result in Table 1.
	row, col int
	label    string
}

// A workload builds its legs from a seed and a measured length. Machine
// workloads convert seconds to ticks at a fixed per-workload rate, chosen
// so the window takes about that long on a 2-CPU host; the tick count,
// not the clock, ends the window, so two commits step the same ticks.
type workload struct {
	name string
	why  string
	legs func(seed uint64, seconds float64) []leg
	// table marks the sweep, whose legs render Table 1.
	table bool
}

// atRate is how many units a run of the given length holds at perSecond,
// at least one.
func atRate(seconds float64, perSecond int) int {
	if n := int(seconds*float64(perSecond) + 0.5); n > 0 {
		return n
	}
	return 1
}

func machine(cfg tppsim.MachineConfig, seconds float64, perSecond int) []leg {
	cfg.Minutes = 1 << 30 // the window, not the config, ends the run
	return []leg{{cfg: cfg, warm: warmTicks, ticks: atRate(seconds, perSecond)}}
}

var workloads = []*workload{
	{
		name: "steady-small",
		why:  "8K-page Cache1 under TPP fits in cache with near-idle daemons, so the per-access draw, translate and charge path sets the tick cost",
		legs: func(seed uint64, s float64) []leg {
			return machine(tppsim.MachineConfig{
				Seed:            seed,
				Policy:          tppsim.TPP(),
				Workload:        tppsim.Workloads["Cache1"](8 << 10),
				Topology:        tppsim.TopologyCXL(2, 1),
				AccessesPerTick: 2000,
			}, s, 12000)
		},
	},
	{
		name: "churn-large",
		why:  "512K-page Cache1 outgrows the per-core cache 14x and churns pages every tick, so the dense page table, the fault path and the numab scan dominate",
		legs: func(seed uint64, s float64) []leg {
			return machine(tppsim.MachineConfig{
				Seed:            seed,
				Policy:          tppsim.TPP(),
				Workload:        tppsim.Workloads["Cache1"](512 << 10),
				Topology:        tppsim.TopologyCXL(2, 1),
				AccessesPerTick: 8192,
			}, s, 1000)
		},
	},
	{
		name: "huge-tb",
		why:  "a 1.15 TB machine in 2 MB frames over the extent table with no reclaim, the only workload on the extent table and the huge-frame paths",
		legs: func(seed uint64, s float64) []leg {
			return machine(tppsim.MachineConfig{
				Seed:     seed,
				Policy:   tppsim.TPP(),
				Workload: hugeHeap(),
				Topology: tppsim.Topology{
					Nodes: []tppsim.TopologyNode{
						{Kind: tppsim.KindLocal, Pages: 192 << 20},
						{Kind: tppsim.KindCXL, Pages: 96 << 20},
					},
					HugePages: true,
				},
				AccessesPerTick: 8192,
			}, s, 4000)
		},
	},
	{
		name: "tiered-pressure",
		why:  "write-heavy Warehouse on a 3-tier expander with the idlepage tracker: the reclaim cascade, migration, hint faults and the tracker plane all run every tick",
		legs: func(seed uint64, s float64) []leg {
			cfg := tppsim.MachineConfig{
				Seed:            seed,
				Policy:          tppsim.TPP(),
				Workload:        tppsim.Workloads["Warehouse"](64 << 10),
				Topology:        tppsim.TopologyExpander(1, 2, 2),
				AccessesPerTick: 4096,
			}
			cfg.Tracker.Kind = "idlepage"
			return machine(cfg, s, 3000)
		},
	},
	{
		name:  "table1-sweep",
		why:   "regenerates the paper's Table 1 (22 machines, four policies, 60 simulated minutes each), the headline a user reproduces, and the only workload running the baseline policies",
		legs:  table1Legs,
		table: true,
	},
}

// hugeHeap is one 192 GB anon region, prefaulted sequentially during
// set-up so it is fully resident (96K frames) before measurement. It is
// larger than the workload's scatter-table bound, so the workload's own
// memory stays flat too.
func hugeHeap() tppsim.Workload {
	return &simwl.Profile{
		PName:  "HugeBench",
		TM:     metrics.ThroughputModel{CPUServiceNs: 400, StallsPerOp: 1},
		Warmup: 512,
		Specs: []simwl.RegionSpec{{
			Name:            "heap",
			Type:            mem.Anon,
			Pages:           48 << 20,
			Weight:          1,
			PrefaultPerTick: 96 << 10,
		}},
	}
}

// table1Policies are Table 1's columns in order. table1Rows are its
// workload/ratio rows; Warehouse runs only the first two policies (the
// paper's "-" cells).
func table1Policies() []tppsim.Policy {
	return []tppsim.Policy{tppsim.DefaultLinux(), tppsim.TPP(), tppsim.NUMABalancing(), tppsim.AutoTiering()}
}

var table1Rows = []struct {
	wl       string
	ratio    [2]uint64
	policies int
}{
	{"Web1", [2]uint64{2, 1}, 4},
	{"Cache1", [2]uint64{2, 1}, 4},
	{"Cache1", [2]uint64{1, 4}, 4},
	{"Cache2", [2]uint64{2, 1}, 4},
	{"Cache2", [2]uint64{1, 4}, 4},
	{"Warehouse", [2]uint64{2, 1}, 2},
}

// table1Pages is Table 1's default working set.
const table1Pages = 32 << 10

// table1Legs builds the sweep at 60 simulated minutes per machine for
// the declared 10 seconds; other lengths scale the minutes, so the
// traced quarter-length pass runs 15.
func table1Legs(seed uint64, seconds float64) []leg {
	minutes := atRate(seconds, 6)
	var legs []leg
	for r, row := range table1Rows {
		label := fmt.Sprintf("%s (%d:%d)", row.wl, row.ratio[0], row.ratio[1])
		for col, policy := range table1Policies()[:row.policies] {
			legs = append(legs, leg{
				cfg: tppsim.MachineConfig{
					Seed:            seed,
					Policy:          policy,
					Workload:        tppsim.Workloads[row.wl](table1Pages),
					Topology:        tppsim.TopologyCXL(row.ratio[0], row.ratio[1]),
					Minutes:         minutes,
					AccessesPerTick: 2000,
				},
				ticks:   minutes * simwl.TicksPerMinute,
				mayFail: true,
				row:     r,
				col:     col,
				label:   label,
			})
		}
	}
	return legs
}

// selectWorkloads resolves a comma-separated list of names, or "all".
func selectWorkloads(spec string) ([]*workload, error) {
	if spec == "all" {
		return workloads, nil
	}
	var out []*workload
	for _, name := range strings.Split(spec, ",") {
		w := findWorkload(name)
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q (have %s, or all)", name, strings.Join(workloadNames(), ", "))
		}
		out = append(out, w)
	}
	return out, nil
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
