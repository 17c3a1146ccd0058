package reclaim

import (
	"testing"

	"tppsim/internal/lru"
	"tppsim/internal/mem"
	"tppsim/internal/migrate"
	"tppsim/internal/pagetable"
	"tppsim/internal/swap"
	"tppsim/internal/tier"
	"tppsim/internal/vmstat"
	"tppsim/internal/xrand"
)

type fixture struct {
	store *mem.Store
	topo  *tier.Topology
	vecs  []*lru.Vec
	stat  *vmstat.NodeStats
	eng   *migrate.Engine
	as    *pagetable.AddressSpace
	d     *Daemon
}

func newFixture(t testing.TB, cfg Config, localPages, cxlPages uint64, swapd *swap.Device) *fixture {
	t.Helper()
	topo, err := tier.Spec{Nodes: []tier.NodeSpec{
		{Kind: mem.KindLocal, Pages: localPages},
		{Kind: mem.KindCXL, Pages: cxlPages},
	}}.Build(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	store := mem.NewStore(int(localPages + cxlPages))
	vecs := make([]*lru.Vec, topo.NumNodes())
	for i := range vecs {
		vecs[i] = lru.NewVec(store)
	}
	stat := vmstat.NewNodeStats(topo.NumNodes())
	eng := migrate.NewEngine(migrate.Config{RefsFailProb: -1}, store, topo, vecs, stat, xrand.New(1))
	as := pagetable.New(1)
	d := New(cfg, store, topo, vecs, stat, eng, swapd, as)
	return &fixture{store, topo, vecs, stat, eng, as, d}
}

// populate maps n pages of type pt on node id (inactive, unreferenced),
// each with a VA mapping so eviction has something to unmap.
func (f *fixture) populate(t testing.TB, id mem.NodeID, pt mem.PageType, n int, dirty bool) []mem.PFN {
	t.Helper()
	r := f.as.Mmap(uint64(n), pt)
	pfns := make([]mem.PFN, n)
	for i := 0; i < n; i++ {
		if !f.topo.Node(id).Acquire(pt) {
			t.Fatal("fixture node full")
		}
		pfn := f.store.Alloc(pt, id)
		if dirty {
			pg := f.store.Page(pfn)
			pg.Flags = pg.Flags.Set(mem.PGDirty)
		}
		f.vecs[id].Add(pfn, false)
		f.as.MapPage(r.Start+pagetable.VPN(i), pfn)
		pfns[i] = pfn
	}
	return pfns
}

// fillBelow returns a page count that, once resident, leaves the node's
// free count at half the given watermark.
func fillBelow(n *mem.Node, wm uint64) int { return int(n.Capacity - wm/2) }

func TestKswapdIdleAboveWatermarks(t *testing.T) {
	f := newFixture(t, Config{DemotionEnabled: true, Decoupled: true}, 1000, 1000, nil)
	f.populate(t, 0, mem.File, 100, false)
	if spent := f.d.Tick(); spent != 0 {
		t.Fatalf("kswapd ran on an unpressured node: %v ns", spent)
	}
}

func TestDemotionFreesLocalNode(t *testing.T) {
	f := newFixture(t, Config{DemotionEnabled: true, Decoupled: true}, 1000, 1000, nil)
	local := f.topo.Node(0)
	// Fill local past the demotion watermark with cold anon pages.
	n := fillBelow(local, local.WM.Demote)
	f.populate(t, 0, mem.Anon, n, false)
	if !local.BelowDemote() {
		t.Fatal("fixture did not create pressure")
	}
	f.d.Tick()
	if local.Free() < local.WM.Demote {
		t.Fatalf("kswapd did not reach demotion watermark: free=%d want>=%d", local.Free(), local.WM.Demote)
	}
	if got := f.stat.Get(vmstat.PgdemoteKswapd); got == 0 {
		t.Fatal("no pages demoted")
	}
	if f.topo.Node(1).Resident() == 0 {
		t.Fatal("CXL node received nothing")
	}
	// Anon pages must be demoted, not swapped (no swap device).
	if f.stat.Get(vmstat.PswpOut) != 0 {
		t.Fatal("pages swapped despite demotion")
	}
	// Demoted pages keep their mappings (still in-memory, §5.1).
	if f.as.EvictedCount(pagetable.EvictNone) != 0 {
		t.Fatal("demotion evicted mappings")
	}
}

func TestDefaultReclaimDropsFilePages(t *testing.T) {
	f := newFixture(t, Config{}, 1000, 1000, nil)
	local := f.topo.Node(0)
	n := fillBelow(local, local.WM.Low)
	pfns := f.populate(t, 0, mem.File, n, false)
	f.d.Tick()
	if local.Free() < local.WM.High {
		t.Fatalf("default reclaim did not reach high watermark: free=%d", local.Free())
	}
	if f.stat.Get(vmstat.PgstealKswapd) == 0 {
		t.Fatal("nothing stolen")
	}
	// Dropped file pages leave EvictFile records.
	if f.as.EvictedCount(pagetable.EvictFile) == 0 {
		t.Fatal("no eviction records")
	}
	_ = pfns
}

func TestAnonUnreclaimableWithoutSwapOrDemotion(t *testing.T) {
	f := newFixture(t, Config{}, 1000, 1000, nil)
	local := f.topo.Node(0)
	n := fillBelow(local, local.WM.Low)
	f.populate(t, 0, mem.Anon, n, false)
	f.d.Tick()
	if f.stat.Get(vmstat.PgstealKswapd) != 0 || f.stat.Get(vmstat.PgdemoteKswapd) != 0 {
		t.Fatal("anon pages reclaimed with no swap and no demotion")
	}
	if local.Free() >= local.WM.High {
		t.Fatal("node mysteriously freed")
	}
}

func TestAnonSwappedWithSwapDevice(t *testing.T) {
	sd := swap.New(swap.Config{Kind: swap.KindZswap}, vmstat.NewNodeStats(2))
	f := newFixture(t, Config{}, 1000, 1000, sd)
	local := f.topo.Node(0)
	n := fillBelow(local, local.WM.Low)
	f.populate(t, 0, mem.Anon, n, false)
	// Swap is slow; give kswapd a few ticks.
	for i := 0; i < 10 && local.Free() < local.WM.High; i++ {
		f.d.Tick()
	}
	if sd.Used() == 0 {
		t.Fatal("nothing swapped")
	}
	if f.as.EvictedCount(pagetable.EvictSwap) == 0 {
		t.Fatal("swap eviction not recorded")
	}
}

func TestTmpfsUnreclaimableWithoutSwap(t *testing.T) {
	f := newFixture(t, Config{}, 1000, 1000, nil)
	local := f.topo.Node(0)
	n := fillBelow(local, local.WM.Low)
	f.populate(t, 0, mem.Tmpfs, n, false)
	f.d.Tick()
	if f.stat.Get(vmstat.PgstealKswapd) != 0 {
		t.Fatal("tmpfs dropped without swap")
	}
}

func TestTmpfsDemotable(t *testing.T) {
	f := newFixture(t, Config{DemotionEnabled: true, Decoupled: true}, 1000, 1000, nil)
	local := f.topo.Node(0)
	n := fillBelow(local, local.WM.Demote)
	f.populate(t, 0, mem.Tmpfs, n, false)
	f.d.Tick()
	if f.stat.Get(vmstat.PgdemoteKswapd) == 0 {
		t.Fatal("tmpfs not demoted")
	}
}

func TestReferencedPagesGetSecondChance(t *testing.T) {
	f := newFixture(t, Config{DemotionEnabled: true, Decoupled: true}, 1000, 1000, nil)
	local := f.topo.Node(0)
	n := fillBelow(local, local.WM.Demote)
	pfns := f.populate(t, 0, mem.Anon, n, false)
	// Mark every page referenced: the first scan must rotate, not demote.
	for _, pfn := range pfns {
		pg := f.store.Page(pfn)
		pg.Flags = pg.Flags.Set(mem.PGReferenced)
	}
	f.d.Tick()
	if f.stat.Get(vmstat.PgRotated) == 0 {
		t.Fatal("no second chances granted")
	}
	// Second tick: references cleared, now they demote.
	f.d.Tick()
	if f.stat.Get(vmstat.PgdemoteKswapd) == 0 {
		t.Fatal("cold pages never demoted after second chance")
	}
}

func TestDemotionFallsBackWhenCXLFull(t *testing.T) {
	f := newFixture(t, Config{DemotionEnabled: true, Decoupled: true}, 1000, 50, nil)
	// Fill CXL completely.
	f.populate(t, 1, mem.Anon, 50, false)
	local := f.topo.Node(0)
	n := fillBelow(local, local.WM.Demote)
	f.populate(t, 0, mem.File, n, false)
	f.d.Tick()
	if f.stat.Get(vmstat.PgdemoteFallbck) == 0 {
		t.Fatal("no fallback recorded")
	}
	// Fallback drops the file pages instead.
	if f.stat.Get(vmstat.PgstealKswapd) == 0 {
		t.Fatal("fallback did not reclaim")
	}
}

func TestDecoupledTargetsDemoteWatermark(t *testing.T) {
	coupled := newFixture(t, Config{DemotionEnabled: true}, 1000, 1000, nil)
	decoupled := newFixture(t, Config{DemotionEnabled: true, Decoupled: true}, 1000, 1000, nil)
	for _, f := range []*fixture{coupled, decoupled} {
		local := f.topo.Node(0)
		n := fillBelow(local, local.WM.Low)
		f.populate(t, 0, mem.Anon, n, false)
		f.d.Tick()
	}
	cf := coupled.topo.Node(0).Free()
	df := decoupled.topo.Node(0).Free()
	if df <= cf {
		t.Fatalf("decoupled kswapd built no extra headroom: coupled=%d decoupled=%d", cf, df)
	}
	if df < decoupled.topo.Node(0).WM.Demote {
		t.Fatalf("decoupled free=%d below demote watermark", df)
	}
}

func TestDirectReclaim(t *testing.T) {
	f := newFixture(t, Config{DemotionEnabled: true, Decoupled: true}, 1000, 1000, nil)
	local := f.topo.Node(0)
	n := fillBelow(local, local.WM.Min)
	f.populate(t, 0, mem.Anon, n, false)
	freed, stall := f.d.DirectReclaim(0, 4)
	if freed == 0 {
		t.Fatal("direct reclaim freed nothing")
	}
	if stall <= 0 {
		t.Fatal("direct reclaim reported no stall")
	}
	if f.stat.Get(vmstat.PgscanDirect) == 0 || f.stat.Get(vmstat.PgdemoteDirect) == 0 {
		t.Fatal("direct counters not used")
	}
}

func TestBudgetBoundsWork(t *testing.T) {
	// A 1 µs budget cannot demote more than a page or two per tick.
	f := newFixture(t, Config{DemotionEnabled: true, Decoupled: true, TickBudgetNs: 1000}, 10000, 10000, nil)
	local := f.topo.Node(0)
	n := fillBelow(local, local.WM.Demote)
	f.populate(t, 0, mem.Anon, n, false)
	f.d.Tick()
	if got := f.stat.Get(vmstat.PgdemoteKswapd); got > 2 {
		t.Fatalf("budget ignored: %d pages demoted", got)
	}
}

func TestAgingRefillsInactive(t *testing.T) {
	f := newFixture(t, Config{DemotionEnabled: true, Decoupled: true}, 1000, 1000, nil)
	local := f.topo.Node(0)
	n := fillBelow(local, local.WM.Demote)
	pfns := f.populate(t, 0, mem.Anon, n, false)
	// Move everything to the active list: aging must pull pages back.
	for _, pfn := range pfns {
		f.vecs[0].Activate(pfn)
	}
	f.d.Tick()
	if f.stat.Get(vmstat.PgdeactivateCt) == 0 {
		t.Fatal("no aging happened")
	}
	if f.stat.Get(vmstat.PgdemoteKswapd) == 0 {
		t.Fatal("aged pages not demoted")
	}
}

func TestWakeExplicit(t *testing.T) {
	f := newFixture(t, Config{DemotionEnabled: true, Decoupled: true}, 1000, 1000, nil)
	// Node not under pressure, but explicitly woken: kswapd checks and
	// sleeps again without reclaiming.
	f.populate(t, 0, mem.Anon, 10, false)
	f.d.Wake(0)
	f.d.Tick()
	if f.stat.Get(vmstat.PgdemoteKswapd) != 0 {
		t.Fatal("woken kswapd reclaimed an unpressured node")
	}
}

func TestLRUInvariantsAfterReclaim(t *testing.T) {
	sd := swap.New(swap.Config{Kind: swap.KindZswap}, vmstat.NewNodeStats(2))
	f := newFixture(t, Config{DemotionEnabled: true, Decoupled: true}, 500, 200, sd)
	local := f.topo.Node(0)
	f.populate(t, 0, mem.Anon, int(local.Capacity)-5, false)
	for i := 0; i < 20; i++ {
		f.d.Tick()
	}
	for i, vec := range f.vecs {
		if err := vec.CheckInvariants(); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	// Conservation: live pages equal resident pages across nodes + swap.
	resident := f.topo.Node(0).Resident() + f.topo.Node(1).Resident()
	if uint64(f.store.Live()) != resident {
		t.Fatalf("store live %d != resident %d", f.store.Live(), resident)
	}
}
