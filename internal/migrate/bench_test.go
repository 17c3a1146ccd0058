package migrate_test

import (
	"testing"
	"time"

	"tppsim/internal/lru"
	"tppsim/internal/mem"
	"tppsim/internal/migrate"
	"tppsim/internal/numab"
	"tppsim/internal/pagetable"
	"tppsim/internal/tier"
	"tppsim/internal/vmstat"
	"tppsim/internal/xrand"
)

// BenchmarkMigrate measures a migrate batch: 1024 local pages demoted to
// CXL, then promoted back, with an enabled NUMA balancer installed as the
// store's move observer (as on every TPP machine). ns/page is per
// successful migration; the engine must allocate nothing.
func BenchmarkMigrate(b *testing.B) {
	const batch = 1024
	topo, err := tier.Spec{Nodes: []tier.NodeSpec{
		{Kind: mem.KindLocal, Pages: 2 * batch},
		{Kind: mem.KindCXL, Pages: 2 * batch},
	}}.Build(0, 0)
	if err != nil {
		b.Fatal(err)
	}
	store := mem.NewStore(4 * batch)
	vecs := []*lru.Vec{lru.NewVec(store), lru.NewVec(store)}
	stat := vmstat.NewNodeStats(topo.NumNodes())
	eng := migrate.NewEngine(migrate.Config{RefsFailProb: -1}, store, topo, vecs, stat, xrand.New(1))
	numab.New(numab.Config{Enabled: true, CXLOnly: true}, store, topo, vecs, stat, eng, pagetable.New(1))
	pfns := make([]mem.PFN, batch)
	for i := range pfns {
		types := [...]mem.PageType{mem.Anon, mem.File}
		pt := types[i%len(types)]
		if !topo.Node(0).Acquire(pt) {
			b.Fatal("local node full")
		}
		pfns[i] = store.Alloc(pt, 0)
		vecs[0].Add(pfns[i], i%2 == 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for _, pfn := range pfns {
			if _, err := eng.Migrate(pfn, 1, migrate.Demotion); err != nil {
				b.Fatal(err)
			}
		}
		for _, pfn := range pfns {
			if _, err := eng.Migrate(pfn, 0, migrate.Promotion); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(time.Since(start))/float64(2*batch*b.N), "ns/page")
}
