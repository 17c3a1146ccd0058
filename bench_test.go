// Benchmarks: one per paper table and figure. Each benchmark regenerates
// its artifact at reduced scale per iteration (benchmarks are about
// keeping the harness runnable and timed, not about matching absolute
// wall-clock); cmd/experiments regenerates the full-scale artifacts.
package tppsim

import (
	"testing"

	"tppsim/internal/experiments"
)

// benchOpts is the reduced scale used per benchmark iteration.
func benchOpts() experiments.Options {
	return experiments.Options{Pages: 8 * 1024, Minutes: 15, Seed: 1}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	spec, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	o := benchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := spec.Run(o)
		if res.Table == nil || len(res.Table.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkFig2LatencyMatrix(b *testing.B)     { benchExperiment(b, "Fig2") }
func BenchmarkFig3MemoryTCO(b *testing.B)         { benchExperiment(b, "Fig3") }
func BenchmarkFig4BandwidthCapacity(b *testing.B) { benchExperiment(b, "Fig4") }
func BenchmarkFig5CXLvsNUMA(b *testing.B)         { benchExperiment(b, "Fig5") }
func BenchmarkFig7PageTemperature(b *testing.B)   { benchExperiment(b, "Fig7") }
func BenchmarkFig8AnonVsFile(b *testing.B)        { benchExperiment(b, "Fig8") }
func BenchmarkFig9UsageOverTime(b *testing.B)     { benchExperiment(b, "Fig9") }
func BenchmarkFig10Sensitivity(b *testing.B)      { benchExperiment(b, "Fig10") }
func BenchmarkFig11Reaccess(b *testing.B)         { benchExperiment(b, "Fig11") }
func BenchmarkTable1Throughput(b *testing.B)      { benchExperiment(b, "Table1") }
func BenchmarkFig14LocalTraffic(b *testing.B)     { benchExperiment(b, "Fig14") }
func BenchmarkFig15Constrained(b *testing.B)      { benchExperiment(b, "Fig15") }
func BenchmarkFig16LatencySweep(b *testing.B)     { benchExperiment(b, "Fig16") }
func BenchmarkFig17Decoupling(b *testing.B)       { benchExperiment(b, "Fig17") }
func BenchmarkFig18ActiveLRU(b *testing.B)        { benchExperiment(b, "Fig18") }
func BenchmarkTable2PageTypeAware(b *testing.B)   { benchExperiment(b, "Table2") }
func BenchmarkFig19Baselines(b *testing.B)        { benchExperiment(b, "Fig19") }
func BenchmarkTable3TMOHelpsTPP(b *testing.B)     { benchExperiment(b, "Table3") }
func BenchmarkTable4TPPHelpsTMO(b *testing.B)     { benchExperiment(b, "Table4") }
func BenchmarkX1ActiveLRUScalars(b *testing.B)    { benchExperiment(b, "X1") }
func BenchmarkX2ReclaimSpeed(b *testing.B)        { benchExperiment(b, "X2") }
func BenchmarkX3MigrationBandwidth(b *testing.B)  { benchExperiment(b, "X3") }

// BenchmarkSimTick measures the simulator's core-loop cost: one machine
// tick including the access stream and daemons. The machine setup is
// shared with cmd/bench (SimTickBenchConfig), which records the result
// in BENCH_simtick.json.
func BenchmarkSimTick(b *testing.B) {
	benchSimTick(b, SimTickBenchConfig())
}

// BenchmarkSimTickSampled is the same machine with the per-tick
// per-node series plane sampling every tick; cmd/bench -check holds it
// within 10% of BenchmarkSimTick.
func BenchmarkSimTickSampled(b *testing.B) {
	benchSimTick(b, SimTickBenchSampledConfig())
}

// BenchmarkSimTickProbed is the same machine with the probe plane's
// histograms and phase profiler on; cmd/bench -check holds it within
// 10% of BenchmarkSimTick with zero alloc growth.
func BenchmarkSimTickProbed(b *testing.B) {
	benchSimTick(b, SimTickBenchProbedConfig())
}

// BenchmarkSimTickTracked is the same machine with the sampled
// access-tracking plane on at idlepage defaults (per-access hook plus
// periodic scan-and-clear); cmd/bench -check holds it within 10% of
// BenchmarkSimTick with zero alloc growth.
func BenchmarkSimTickTracked(b *testing.B) {
	benchSimTick(b, SimTickBenchTrackedConfig())
}

// BenchmarkSimTickHuge is the terabyte-scale machine: ~1.15 TB of
// capacity in 2 MB huge frames over the extent-compressed page table,
// with a fully prefaulted 192 GB heap (SimTickBenchHugeConfig).
// cmd/bench additionally gates the simulator's bytes per simulated
// resident page (reported here as the bytes/page metric).
func BenchmarkSimTickHuge(b *testing.B) {
	m := benchSimTick(b, SimTickBenchHugeConfig())
	b.ReportMetric(m.MemStats().BytesPerPage, "simbytes/page")
}

func benchSimTick(b *testing.B, cfg MachineConfig) *Machine {
	m, err := NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the machine past its fill phase.
	for i := 0; i < SimTickBenchWarmTicks; i++ {
		m.Step()
	}
	if failed, why := m.Failed(); failed {
		b.Fatalf("machine failed during warm-up: %s", why)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
	return m
}
