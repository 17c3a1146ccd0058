package tppsim

import (
	"tppsim/internal/mem"
	"tppsim/internal/metrics"
	"tppsim/internal/tracker"
	"tppsim/internal/workload"
)

// SimTickBenchConfig is the canonical core-loop benchmark setup shared
// by BenchmarkSimTick (bench_test.go) and cmd/bench, which commits its
// result as BENCH_simtick.json. Keeping one definition means the CI
// benchmark and the perf-trajectory artifact always measure the same
// machine.
func SimTickBenchConfig() MachineConfig {
	return MachineConfig{
		Seed:     1,
		Policy:   TPP(),
		Workload: Workloads["Cache1"](8 * 1024),
		Ratio:    [2]uint64{2, 1},
		Minutes:  1 << 30,
	}
}

// SimTickBenchSampledConfig is SimTickBenchConfig with the per-tick
// per-node series plane sampling every tick — the worst case for the
// sampling hook. cmd/bench -check pins its ns/op within 10% of the
// sampling-off run, the "observability is near-free" guarantee.
func SimTickBenchSampledConfig() MachineConfig {
	cfg := SimTickBenchConfig()
	cfg.SampleEveryTicks = 1
	return cfg
}

// SimTickBenchProbedConfig is SimTickBenchConfig with the probe
// plane's latency histograms and phase profiler both on — every access
// observed into a histogram and every tick lapped nine times. cmd/bench
// -check pins its ns/op within 10% of the probe-off run with zero alloc
// growth, the distribution plane's analogue of the sampling gate.
func SimTickBenchProbedConfig() MachineConfig {
	cfg := SimTickBenchConfig()
	cfg.ProbeLatency = true
	cfg.ProbePhases = true
	return cfg
}

// SimTickBenchTrackedConfig is SimTickBenchConfig with the sampled
// access-tracking plane on at idlepage defaults — every access runs the
// per-access hook and every scan window walks the accessed-bit map into
// the heatmap (oracle off: it is a test instrument, not part of the
// plane's steady-state cost). cmd/bench -check pins its ns/op within
// 10% of the tracker-off run with zero alloc growth, the tracker
// plane's analogue of the sampling and probe gates.
func SimTickBenchTrackedConfig() MachineConfig {
	cfg := SimTickBenchConfig()
	cfg.Tracker = tracker.Config{Kind: "idlepage"}
	return cfg
}

// SimTickBenchHugeConfig is the terabyte-scale machine: ~1.15 TB of
// memory (302M base pages across local + CXL) in 2 MB huge frames over
// the extent-compressed page table. The workload sequentially prefaults
// a 192 GB anon heap during warm-up — frames fault in order, so the
// table collapses toward a handful of extents — then drives a uniform
// access stream over it. cmd/bench records its per-tick cost and gates
// its simulator footprint at SimTickHugeBytesPerPageMax bytes per
// simulated resident page.
func SimTickBenchHugeConfig() MachineConfig {
	return MachineConfig{
		Seed:            1,
		Policy:          TPP(),
		Workload:        hugeBenchWorkload(),
		LocalPages:      192 << 20,
		CXLPages:        96 << 20,
		HugePages:       true,
		Minutes:         1 << 30,
		AccessesPerTick: 8192,
	}
}

// SimTickHugeBytesPerPageMax is the footprint gate cmd/bench -check
// enforces on the huge benchmark: simulator bytes (page table + page
// store) per simulated resident base page.
const SimTickHugeBytesPerPageMax = 1.0

// hugeBenchWorkload is SimTickBenchHugeConfig's driver: one 192 GB
// (48M-page) anon region, sequentially prefaulted over the warm-up so
// it is fully resident — 96K frames — before measurement starts. The
// workload keeps no per-page state (its rank→page permutation is
// computed per access), so its own memory stays flat at any size.
func hugeBenchWorkload() Workload {
	return &workload.Profile{
		PName:  "HugeBench",
		TM:     metrics.ThroughputModel{CPUServiceNs: 400, StallsPerOp: 1},
		Warmup: 512,
		Specs: []workload.RegionSpec{{
			Name:            "heap",
			Type:            mem.Anon,
			Pages:           48 << 20,
			Weight:          1,
			PrefaultPerTick: 96 << 10,
		}},
	}
}

// SimTickBenchWarmTicks is how many ticks the benchmark machine steps
// before measurement, moving it past the workload's fill phase.
const SimTickBenchWarmTicks = 600
