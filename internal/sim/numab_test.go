package sim

import (
	"testing"

	"tppsim/internal/core"
	"tppsim/internal/mem"
	"tppsim/internal/metrics"
	"tppsim/internal/pagetable"
	"tppsim/internal/tier"
	"tppsim/internal/vmstat"
	"tppsim/internal/workload"
)

// TestScanCandidateInvariant holds the NUMA-balancing scan's page-table
// scan marks to exactness on whole machines: after every tick, a mapped,
// unhinted slot whose page sits on a sampled node carries exactly that
// node's mark, no other slot carries one, and no unmapped slot carries a
// hint. The machines cover every path that places a page or clears a
// hint: TPP's CXL-only sampling, classic NUMA balancing
// (every node sampled), AutoTiering's gated promotions, evacuation
// migrations off an offlined expander node, and 2 MB frames.
func TestScanCandidateInvariant(t *testing.T) {
	cxl := func(p core.Policy) Config {
		return Config{
			Seed: 5, Policy: p,
			Workload: workload.Catalog["Cache1"](8 << 10),
			Topology: tier.PresetCXL(2, 1),
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

// scriptWorkload maps one anon region, faults all of it in during tick
// 0, and from tick 1 on draws the same scripted accesses every tick.
type scriptWorkload struct {
	pages uint64
	r     pagetable.Region
	batch func(r pagetable.Region) []pagetable.VPN
}

func (w *scriptWorkload) Name() string { return "script" }
func (w *scriptWorkload) Model() metrics.ThroughputModel {
	return workload.Catalog["Cache1"](2048).Model()
}
func (w *scriptWorkload) TotalPages() uint64     { return w.pages }
func (w *scriptWorkload) WarmupTicks() uint64    { return 0 }
func (w *scriptWorkload) Start(ctx workload.Ctx) { w.r = ctx.Mmap(w.pages, mem.Anon) }
func (w *scriptWorkload) Tick(ctx workload.Ctx, tick uint64) {
	if tick == 0 {
		for v := w.r.Start; v < w.r.End(); v++ {
			ctx.Touch(v)
		}
	}
}
func (w *scriptWorkload) NextAccessBatch(_ workload.Ctx, tick uint64, buf []pagetable.VPN) int {
	if tick == 0 {
		return 0
	}
	return copy(buf, w.batch(w.r))
}

// TestHintFaultOncePerSlot checks that the access path charges one hint
// fault per hinted slot even when a tick reaches the slot twice: through
// the same page twice, and through two VPNs of one 2 MB frame. The batch
// translation snapshots both accesses as hinted; the first fault clears
// the live hint, so the second access is plain. The per-access path
// (the script performed through Touch) must read the live hint too.
func TestHintFaultOncePerSlot(t *testing.T) {
	for _, c := range []struct {
		name  string
		huge  bool
		touch bool
		pages uint64
		// hint is the VPN whose slot is hinted before the batch.
		hint  func(r pagetable.Region) pagetable.VPN
		batch func(r pagetable.Region) []pagetable.VPN
	}{
		{"page-twice", false, false, 64,
			func(r pagetable.Region) pagetable.VPN { return r.Start + 3 },
			func(r pagetable.Region) []pagetable.VPN {
				return []pagetable.VPN{r.Start + 3, r.Start + 1, r.Start + 3}
			}},
		{"page-twice-per-access", false, true, 64,
			func(r pagetable.Region) pagetable.VPN { return r.Start + 3 },
			func(r pagetable.Region) []pagetable.VPN {
				return []pagetable.VPN{r.Start + 3, r.Start + 1, r.Start + 3}
			}},
		{"huge-frame-two-vpns", true, false, 2 * mem.HugeFramePages,
			func(r pagetable.Region) pagetable.VPN { return r.Start + mem.HugeFramePages },
			func(r pagetable.Region) []pagetable.VPN {
				return []pagetable.VPN{r.Start + mem.HugeFramePages + 5, r.Start + 7, r.Start + 2*mem.HugeFramePages - 1}
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := &scriptWorkload{pages: c.pages, batch: c.batch}
			var wl workload.Workload = w
			if c.touch {
				wl = &touchStream{Workload: w, buf: make([]pagetable.VPN, 8)}
			}
			m, err := New(Config{
				Seed: 1, Policy: core.NUMABalancing(), Workload: wl,
				Topology:        cxlPages(8*mem.HugeFramePages, 8*mem.HugeFramePages, c.huge),
				AccessesPerTick: 8, Minutes: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			m.Step() // tick 0 faults the region in
			// Hint the slot as the scan would.
			v := c.hint(w.r)
			s := uint64(v-w.r.Start) >> m.frameShift
			m.as.Poison(0, []pagetable.MarkWord{{W: s / 64, Slots: 1 << (s % 64)}})
			if err := m.balancer.CheckCandidates(); err != nil {
				t.Fatal(err)
			}
			m.Step()
			if failed, why := m.Failed(); failed {
				t.Fatal(why)
			}
			if got := m.stat.Get(vmstat.NumaHintFaults); got != 1 {
				t.Fatalf("%d hint faults, want 1", got)
			}
			if _, h, _ := m.as.TranslateHinted(v); h {
				t.Fatal("the hint fault left the slot hinted")
			}
			if err := m.balancer.CheckCandidates(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
