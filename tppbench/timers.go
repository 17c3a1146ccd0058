package main

import (
	"fmt"
	"time"

	"tppsim"
	"tppsim/internal/mem"
	"tppsim/internal/migrate"
	"tppsim/internal/pagetable"
	"tppsim/internal/series"
	simwl "tppsim/internal/workload"
)

// The layer timers call one public layer entry point in a loop on a
// machine whose measured pass is over.

const timerBatches = 128

// timeDraw times the workload's batched draw and returns the last batch.
func timeDraw(l leg, m *tppsim.Machine, v map[string]float64) ([]pagetable.VPN, error) {
	ba, ok := l.cfg.Workload.(simwl.BatchAccessor)
	if !ok {
		return nil, fmt.Errorf("workload %s has no batched draw", l.cfg.Workload.Name())
	}
	buf := make([]pagetable.VPN, l.cfg.AccessesPerTick)
	n := 0
	start := time.Now()
	for i := 0; i < timerBatches; i++ {
		n = ba.NextAccessBatch(m, m.Tick(), buf)
	}
	v["workload.draw_ns_per_access"] = float64(time.Since(start)) / float64(timerBatches*len(buf))
	return buf[:n], nil
}

// timeTranslate times the address space's batched translation of batch
// and returns the translated frames.
func timeTranslate(m *tppsim.Machine, batch []pagetable.VPN, v map[string]float64) []mem.PFN {
	pfns := make([]mem.PFN, len(batch))
	as := m.AddressSpace()
	start := time.Now()
	for i := 0; i < timerBatches; i++ {
		as.TranslateBatch(batch, pfns)
	}
	v["pagetable.translate_ns_per_access"] = float64(time.Since(start)) / float64(timerBatches*max(1, len(batch)))
	return pfns
}

// timeMigrate demotes each resident frame of pfns to node 1 and promotes
// it back to node 0, reporting host ns per successful migration (per
// attempt when none succeeds).
func timeMigrate(m *tppsim.Machine, pfns []mem.PFN, v map[string]float64) {
	eng := m.Engine()
	var okNs, allNs time.Duration
	var moved, tried int
	try := func(pfn mem.PFN, dest mem.NodeID, why migrate.Reason) bool {
		start := time.Now()
		_, err := eng.Migrate(pfn, dest, why)
		d := time.Since(start)
		allNs += d
		tried++
		if err == nil {
			okNs += d
			moved++
		}
		return err == nil
	}
	for _, pfn := range pfns[:min(len(pfns), 1024)] {
		if pfn != mem.NilPFN && try(pfn, 1, migrate.Demotion) {
			try(pfn, 0, migrate.Promotion)
		}
	}
	if moved > 0 {
		v["migrate.ns_per_page"] = float64(okNs) / float64(moved)
	} else {
		v["migrate.ns_per_page"] = float64(allNs) / float64(max(1, tried))
	}
}

// timeSeries times the per-node series sampler observing the machine's
// stats every tick, as sampling at SampleEveryTicks=1 would.
func timeSeries(m *tppsim.Machine, v map[string]float64) {
	const n = 4096
	s := series.NewSampler(m.Stat().NumNodes(), series.Config{})
	levels := make([]series.Levels, 0, m.Stat().NumNodes())
	calls := 0
	start := time.Now()
	for t := uint64(0); t < n; t++ {
		if s.Due(t) {
			s.Observe(t, m.Stat(), m.NodeLevels(levels[:0]))
			calls++
		}
	}
	v["series.observe_ns"] = float64(time.Since(start)) / float64(max(1, calls))
}
