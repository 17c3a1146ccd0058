package sim

import (
	"testing"

	"tppsim/internal/core"
	"tppsim/internal/mem"
	"tppsim/internal/pagetable"
	"tppsim/internal/tier"
	"tppsim/internal/vmstat"
	"tppsim/internal/workload"
)

// noBatch hides a workload's BatchAccessor fast path so the simulator
// takes the sequential per-access draw loop, while still forwarding the
// DirtyModel extension.
type noBatch struct{ workload.Workload }

func (n noBatch) DirtyProb(r pagetable.Region) float64 {
	if dm, ok := n.Workload.(workload.DirtyModel); ok {
		return dm.DirtyProb(r)
	}
	return 0
}

// TestBatchMatchesSequentialUnderPressure pins the batched access path
// to the sequential one in the regime where they can diverge: a machine
// so tight that demand faults trigger direct reclaim mid-tick, which
// unmaps pages whose translations the batch already resolved. The
// generation check must fall the rest of the batch back to the
// re-translating path, making the two runs identical.
func TestBatchMatchesSequentialUnderPressure(t *testing.T) {
	run := func(batch bool) *Machine {
		var w workload.Workload = workload.Catalog["Web1"](16 * 1024)
		if !batch {
			w = noBatch{w}
		}
		m, err := New(Config{
			Seed: 11, Policy: core.DefaultLinux(), Workload: w,
			LocalPages: 6000, CXLPages: 4000, Minutes: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		if batch != (m.batch != nil) {
			t.Fatalf("batch path = %v, want %v", m.batch != nil, batch)
		}
		m.Run()
		return m
	}
	a, b := run(true), run(false)
	if got := a.Stat().Get(vmstat.PgallocStall); got == 0 {
		t.Fatal("config no longer triggers direct reclaim; pressure regime untested")
	}
	if !a.Stat().Snapshot().Equal(b.Stat().Snapshot()) {
		t.Fatalf("batch and sequential access paths diverged under pressure:\nbatch:\n%s\nsequential:\n%s",
			a.Stat().Snapshot(), b.Stat().Snapshot())
	}
	ra, rb := a.Results(), b.Results()
	if ra.NormalizedThroughput != rb.NormalizedThroughput || ra.AvgLocalTraffic != rb.AvgLocalTraffic {
		t.Fatalf("scalar divergence: batch %v/%v sequential %v/%v",
			ra.NormalizedThroughput, ra.AvgLocalTraffic, rb.NormalizedThroughput, rb.AvgLocalTraffic)
	}
}

// BenchmarkCharge measures the charge loop alone, per access, on
// steady-small's machine (8K-page Cache1 under TPP on a 2:1 CXL box,
// 2000 accesses per tick) stepped 600 ticks, past Cache1's fill phase.
// One tick's batch is drawn and translated once, then charged every
// iteration: migration keeps PFNs and charging resident pages unmaps
// nothing, so the words stay valid. The benchmark fails if the batch
// holds an unmapped page or a charge unmaps one.
func BenchmarkCharge(b *testing.B) {
	m, err := New(Config{
		Seed: 1, Policy: core.TPP(),
		Workload:        workload.Catalog["Cache1"](8 << 10),
		Topology:        tier.PresetCXL(2, 1),
		AccessesPerTick: 2000,
		Minutes:         1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		m.Step()
	}
	if failed, why := m.Failed(); failed {
		b.Fatalf("machine failed during warm-up: %s", why)
	}
	vs := m.accessBuf[:m.batch.NextAccessBatch(m, m.tick, m.accessBuf)]
	ws := m.pfnBuf[:len(vs)]
	m.as.TranslateBatchHinted(vs, ws)
	for _, w := range ws {
		if w == mem.NilPFN {
			b.Fatal("the batch holds an unmapped page")
		}
	}
	gen := m.as.Gen()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.charge(vs, ws)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vs)), "ns/access")
	if m.as.Gen() != gen {
		b.Fatal("charging the batch unmapped a page")
	}
}
