package trace_test

import (
	"io"
	"path/filepath"
	"runtime"
	"testing"

	"tppsim/internal/core"
	"tppsim/internal/mem"
	"tppsim/internal/metrics"
	"tppsim/internal/sim"
	"tppsim/internal/tier"
	"tppsim/internal/trace"
	"tppsim/internal/workload"
)

// BenchmarkReplay times replaying a recorded one-minute run whose
// warm-up floods a 256K-page heap in 2 MB frames, and reports ns and
// heap allocations per replayed trace event. The recording holds one
// touch per flooded page, so nearly every event takes the replayer's
// peek/apply path, one touch at a time.
func BenchmarkReplay(b *testing.B) {
	const heap = 256 << 10
	cfg := sim.Config{
		Seed:   1,
		Policy: core.TPP(),
		Workload: &workload.Profile{
			PName:  "FloodReplay",
			TM:     metrics.ThroughputModel{CPUServiceNs: 400, StallsPerOp: 1},
			Warmup: 30,
			Specs: []workload.RegionSpec{{
				Name: "heap", Type: mem.Anon, Pages: heap, Weight: 1,
				PrefaultPerTick: heap / 16,
			}},
		},
		Topology: tier.Spec{Nodes: []tier.NodeSpec{
			{Kind: mem.KindLocal, Pages: 2 * heap},
			{Kind: mem.KindCXL, Pages: heap},
		}, HugePages: true},
		Minutes: 1,
	}
	path := filepath.Join(b.TempDir(), "flood.trace")
	cfg.RecordTo = path
	rec, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rec.Run()
	if err := rec.RecordError(); err != nil {
		b.Fatal(err)
	}
	tr, err := trace.Load(path)
	if err != nil {
		b.Fatal(err)
	}
	events := 0
	for r := tr.Events(); ; events++ {
		if _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			b.Fatal(err)
		}
	}
	cfg.RecordTo = ""

	var before, after runtime.MemStats
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		cfg.Workload = tr.Replayer(trace.ReplayOptions{})
		m, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res := m.Run(); res.Failed {
			b.Fatal(res.FailReason)
		}
	}
	runtime.ReadMemStats(&after)
	b.StopTimer()
	replayed := float64(b.N) * float64(events)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/replayed, "ns/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/replayed, "allocs/event")
}
