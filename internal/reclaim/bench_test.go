package reclaim

import (
	"testing"

	"tppsim/internal/mem"
	"tppsim/internal/migrate"
)

// BenchmarkDaemonTick measures one kswapd pass of TPP reclaim: a
// 16K-page local node held below its demotion watermark by cold anon
// and file pages, so every tick demotes to CXL until its CPU budget or
// the watermark stops it. The demoted pages are promoted back with the
// timer stopped, so each iteration starts from the same pressure.
func BenchmarkDaemonTick(b *testing.B) {
	const pages = 1 << 14
	f := newFixture(b, Config{DemotionEnabled: true, Decoupled: true}, pages, pages, nil)
	local := f.topo.Node(0)
	n := fillBelow(local, local.WM.Demote)
	pfns := append(f.populate(b, 0, mem.Anon, n/2, false), f.populate(b, 0, mem.File, n-n/2, false)...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.d.Tick() == 0 {
			b.Fatal("kswapd idle under pressure")
		}
		b.StopTimer()
		for _, pfn := range pfns {
			if f.store.Page(pfn).Node != 0 {
				if _, err := f.eng.Migrate(pfn, 0, migrate.Promotion); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StartTimer()
	}
}
