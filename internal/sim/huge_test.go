package sim

import (
	"testing"

	"tppsim/internal/core"
	"tppsim/internal/mem"
	"tppsim/internal/metrics"
	"tppsim/internal/vmstat"
	"tppsim/internal/workload"
)

// hugeTestWorkload is a small huge-mode driver: one anon region of 180
// frames, sequentially prefaulted over a 60-tick warm-up, then accessed
// uniformly. Local capacity holds only 128 frames, so reclaim must
// demote whole frames to CXL.
func hugeTestWorkload() workload.Workload {
	return &workload.Profile{
		PName:  "HugeTest",
		TM:     metrics.ThroughputModel{CPUServiceNs: 400, StallsPerOp: 1},
		Warmup: 60,
		Specs: []workload.RegionSpec{{
			Name:            "heap",
			Type:            mem.Anon,
			Pages:           180 * mem.HugeFramePages,
			Weight:          1,
			PrefaultPerTick: 3 * mem.HugeFramePages,
		}},
	}
}

func hugeTestConfig() Config {
	return Config{
		Seed:       7,
		Policy:     core.TPP(),
		Workload:   hugeTestWorkload(),
		LocalPages: 128 * mem.HugeFramePages,
		CXLPages:   256 * mem.HugeFramePages,
		HugePages:  true,
		Minutes:    3,
	}
}

// TestHugeSmoke runs a small huge-page machine end to end and checks
// the frame-granular accounting: residency conservation in base pages,
// frame-multiple page-denominated counters, the thp_*/extent_* event
// counters, and the MemStats footprint report.
func TestHugeSmoke(t *testing.T) {
	m, err := New(hugeTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	run := m.Run()
	if run.Failed {
		t.Fatalf("huge run failed: %s", run.FailReason)
	}

	const fp = mem.HugeFramePages
	// Every frame faulted exactly once (demotions migrate, not unmap).
	if got := m.stat.Get(vmstat.ThpFaultAlloc); got != 180 {
		t.Errorf("thp_fault_alloc = %d, want 180", got)
	}
	// Residency is charged in base pages; the store holds frames.
	var resident uint64
	for _, n := range m.topo.Nodes() {
		resident += n.Resident()
	}
	if want := uint64(m.store.Live()) * fp; resident != want {
		t.Errorf("resident %d pages != live frames * %d = %d", resident, fp, want)
	}
	if resident != 180*fp {
		t.Errorf("resident = %d pages, want %d", resident, 180*fp)
	}
	// The heap outgrows the local node, so kswapd demoted whole frames.
	demoted := m.stat.Get(vmstat.PgdemoteKswapd) + m.stat.Get(vmstat.PgdemoteDirect)
	if demoted == 0 {
		t.Error("no demotions on an over-committed local node")
	}
	if demoted%fp != 0 {
		t.Errorf("pgdemote = %d, not a multiple of the frame size %d", demoted, fp)
	}
	if m.stat.Get(vmstat.ThpCollapse) == 0 {
		t.Error("huge migrations recorded no thp_collapse events")
	}
	if alloc := m.stat.Get(vmstat.PgallocLocal) + m.stat.Get(vmstat.PgallocCXL); alloc%fp != 0 {
		t.Errorf("pgalloc = %d, not a multiple of the frame size %d", alloc, fp)
	}

	ms := run.MemStats
	if ms.FramePages != fp {
		t.Errorf("MemStats.FramePages = %d, want %d", ms.FramePages, fp)
	}
	if ms.ResidentPages != 180*fp {
		t.Errorf("MemStats.ResidentPages = %d, want %d", ms.ResidentPages, 180*fp)
	}
	if ms.Extents == 0 {
		t.Error("MemStats.Extents = 0 on a populated extent table")
	}
	if ms.BytesPerPage <= 0 || ms.BytesPerPage >= 1 {
		t.Errorf("MemStats.BytesPerPage = %.3f, want in (0, 1)", ms.BytesPerPage)
	}
	// The vmstat extent counters carry the same totals the table reports.
	if got := m.stat.Get(vmstat.ExtentSplit); got != ms.Splits {
		t.Errorf("extent_split = %d, table reports %d", got, ms.Splits)
	}
	if got := m.stat.Get(vmstat.ExtentMerge); got != ms.Merges {
		t.Errorf("extent_merge = %d, table reports %d", got, ms.Merges)
	}
	if ms.Merges == 0 {
		t.Error("sequential prefault produced no extent merges")
	}
}

// TestHugeDeterministic pins huge mode into the determinism contract:
// the same config reproduces identical counters, scalars and MemStats.
func TestHugeDeterministic(t *testing.T) {
	runOne := func() (*metrics.Run, vmstat.Snapshot) {
		m, err := New(hugeTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		run := m.Run()
		if run.Failed {
			t.Fatalf("huge run failed: %s", run.FailReason)
		}
		return run, m.stat.Snapshot()
	}
	baseRun, baseSnap := runOne()
	run, snap := runOne()
	if snap != baseSnap {
		t.Error("vmstat diverged between two runs of one config")
	}
	if run.AvgLatencyNs != baseRun.AvgLatencyNs ||
		run.NormalizedThroughput != baseRun.NormalizedThroughput ||
		run.AvgLocalTraffic != baseRun.AvgLocalTraffic {
		t.Error("scalars diverged between two runs of one config")
	}
	if run.MemStats != baseRun.MemStats {
		t.Error("MemStats diverged between two runs of one config")
	}
}
