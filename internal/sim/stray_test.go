package sim

import (
	"strings"
	"testing"

	"tppsim/internal/core"
	"tppsim/internal/mem"
	"tppsim/internal/metrics"
	"tppsim/internal/pagetable"
	"tppsim/internal/workload"
)

// strayWorkload maps one small region and, from tick 3 on, draws an
// access at a VPN no region covers — what a hand-written or corrupt
// trace can produce.
type strayWorkload struct {
	r     pagetable.Region
	stray func(r pagetable.Region) pagetable.VPN
}

func (w *strayWorkload) Name() string { return "stray" }
func (w *strayWorkload) Model() metrics.ThroughputModel {
	return workload.Catalog["Cache1"](2048).Model()
}
func (w *strayWorkload) TotalPages() uint64        { return 64 }
func (w *strayWorkload) WarmupTicks() uint64       { return 0 }
func (w *strayWorkload) Start(ctx workload.Ctx)    { w.r = ctx.Mmap(64, mem.Anon) }
func (w *strayWorkload) Tick(workload.Ctx, uint64) {}
func (w *strayWorkload) NextAccessBatch(_ workload.Ctx, tick uint64, buf []pagetable.VPN) int {
	v := w.r.Start + pagetable.VPN(tick)
	if tick >= 3 {
		v = w.stray(w.r)
	}
	for i := range buf {
		buf[i] = v
	}
	return len(buf)
}

// TestAccessOutsideRegionsFailsRun checks that an access outside every
// region ends the run as failed with a reason instead of panicking, for
// a VPN in the guard gap after a region and one far past the mapped
// span, and that the failed machine then charges and faults in nothing.
func TestAccessOutsideRegionsFailsRun(t *testing.T) {
	for name, stray := range map[string]func(pagetable.Region) pagetable.VPN{
		"guard gap":   func(r pagetable.Region) pagetable.VPN { return r.End() + 1 },
		"beyond span": func(r pagetable.Region) pagetable.VPN { return r.End() << 20 },
	} {
		t.Run(name, func(t *testing.T) {
			w := &strayWorkload{stray: stray}
			m, err := New(Config{Seed: 1, Policy: core.TPP(), Workload: w, Minutes: 1})
			if err != nil {
				t.Fatal(err)
			}
			r := m.Run()
			if !r.Failed {
				t.Fatal("run with a stray access did not fail")
			}
			if !strings.Contains(r.FailReason, "outside any region") {
				t.Fatalf("fail reason %q does not name the stray access", r.FailReason)
			}
			if m.Tick() != 4 {
				t.Fatalf("run stopped after %d ticks, want 4 (failed during tick 3)", m.Tick())
			}
			cur, stat := m.cur, m.Stat().Snapshot()
			m.Touch(w.r.Start)      // resident since tick 0
			m.Touch(w.r.Start + 10) // never mapped
			if m.cur != cur || m.Stat().Snapshot() != stat {
				t.Fatal("Touch on a failed machine charged an access or faulted a page in")
			}
		})
	}
}
