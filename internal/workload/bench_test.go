package workload

import (
	"testing"

	"tppsim/internal/mem"
	"tppsim/internal/pagetable"
	"tppsim/internal/xrand"
)

// drawCtx is a Ctx for draw benchmarks: a real address space, no touch
// bookkeeping, so a large profile's warm-up flood costs no memory.
type drawCtx struct {
	as  *pagetable.AddressSpace
	rng *xrand.RNG
}

func (c *drawCtx) Mmap(pages uint64, t mem.PageType) pagetable.Region { return c.as.Mmap(pages, t) }
func (c *drawCtx) Munmap(r pagetable.Region)                          { c.as.Munmap(r, nil) }
func (c *drawCtx) Touch(pagetable.VPN)                                {}
func (c *drawCtx) TouchRange(pagetable.VPN, uint64)                   {}
func (c *drawCtx) RNG() *xrand.RNG                                    { return c.rng }

// BenchmarkNextAccessBatch measures the workload draw alone: one tick's
// batch from Cache1 past its warm-up, at steady-small's 8K pages and
// 2000 accesses per tick and at churn-large's 512K pages and 8192.
func BenchmarkNextAccessBatch(b *testing.B) {
	for _, tc := range []struct {
		name         string
		pages, batch int
	}{{"8K", 8 << 10, 2000}, {"512K", 512 << 10, 8192}} {
		b.Run(tc.name, func(b *testing.B) {
			w := Cache1(uint64(tc.pages))
			ctx := &drawCtx{as: pagetable.New(1), rng: xrand.New(1)}
			w.Start(ctx)
			tick := uint64(0)
			for ; tick <= w.WarmupTicks(); tick++ {
				w.Tick(ctx, tick)
			}
			buf := make([]pagetable.VPN, tc.batch)
			// The first steady-state draw builds the picker's CDF.
			w.NextAccessBatch(ctx, tick, buf)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if w.NextAccessBatch(ctx, tick, buf) != len(buf) {
					b.Fatal("short batch")
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tc.batch), "ns/access")
		})
	}
}
