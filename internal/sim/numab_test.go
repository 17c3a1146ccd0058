package sim

import (
	"testing"

	"tppsim/internal/core"
	"tppsim/internal/vmstat"
	"tppsim/internal/workload"
)

// TestScanCandidateInvariant holds the NUMA-balancing scan's candidate
// bitset to its promise on whole machines: after every tick, every
// mapped page whose bit is clear is already PGHinted or sits on a node
// the scan does not sample. The machines cover every path that places a
// page or clears a hint: TPP's CXL-only sampling, classic NUMA balancing
// (every node sampled), AutoTiering's gated promotions, evacuation
// migrations off an offlined expander node, and 2 MB frames.
func TestScanCandidateInvariant(t *testing.T) {
	cxl := func(p core.Policy) Config {
		return Config{
			Seed: 5, Policy: p,
			Workload: workload.Catalog["Cache1"](8 << 10),
			Ratio:    [2]uint64{2, 1},
			Minutes:  10,
		}
	}
	cases := []struct {
		name string
		cfg  Config
		// want lists counters the run must move, so the invariant is
		// checked against the paths the machine is meant to exercise.
		want []vmstat.Counter
	}{
		{"tpp", cxl(core.TPP()), []vmstat.Counter{vmstat.PgpromoteSuccess}},
		{"numa-balancing", cxl(core.NUMABalancing()), []vmstat.Counter{vmstat.PgpromoteSuccess}},
		{"autotiering", cxl(core.AutoTiering()), []vmstat.Counter{vmstat.PgpromoteSuccess}},
		{"expander-offline", faultedExpanderCfg(), []vmstat.Counter{vmstat.EvacuatedPages}},
		{"huge", hugeTestConfig(), nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ticks := uint64(c.cfg.Minutes) * workload.TicksPerMinute
			for m.Tick() < ticks {
				m.Step()
				if failed, why := m.Failed(); failed {
					t.Fatalf("tick %d: run failed: %s", m.Tick(), why)
				}
				if err := m.balancer.CheckCandidates(); err != nil {
					t.Fatalf("tick %d: %v", m.Tick(), err)
				}
			}
			for _, ctr := range append(c.want, vmstat.NumaPagesScanned, vmstat.NumaHintFaults) {
				if m.stat.Get(ctr) == 0 {
					t.Errorf("%s stayed 0: the run never exercised that path", ctr)
				}
			}
		})
	}
}
