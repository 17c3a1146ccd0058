package tmo

import (
	"testing"

	"tppsim/internal/lru"
	"tppsim/internal/mem"
	"tppsim/internal/migrate"
	"tppsim/internal/pagetable"
	"tppsim/internal/reclaim"
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
	as    *pagetable.AddressSpace
	sd    *swap.Device
	d     *reclaim.Daemon
	c     *Controller
}

func newFixture(t *testing.T, cfg Config, localPages, cxlPages uint64) *fixture {
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
	sd := swap.New(swap.Config{Kind: swap.KindZswap}, stat)
	d := reclaim.New(reclaim.Config{}, store, topo, vecs, stat, eng, sd, as)
	c := New(cfg, topo, d, sd)
	return &fixture{store, topo, vecs, stat, as, sd, d, c}
}

func (f *fixture) populate(t *testing.T, id mem.NodeID, n int) {
	t.Helper()
	r := f.as.Mmap(uint64(n), mem.Anon)
	for i := 0; i < n; i++ {
		if !f.topo.Node(id).Acquire(mem.Anon) {
			t.Fatal("fixture node full")
		}
		pfn := f.store.Alloc(mem.Anon, id)
		f.vecs[id].Add(pfn, false)
		f.as.MapPage(r.Start+pagetable.VPN(i), pfn)
	}
}

// runEpoch feeds n quiet ticks (no stall) and fires the epoch boundary.
func (f *fixture) runEpoch(stallFrac float64) float64 {
	var spent float64
	for i := uint64(0); i < f.c.cfg.EpochTicks; i++ {
		f.c.ObserveStall(stallFrac*100e6, 100e6)
		spent += f.c.Tick()
	}
	return spent
}

func TestRateGrowsWhenQuiet(t *testing.T) {
	f := newFixture(t, Config{}, 1000, 1000)
	f.populate(t, 0, 500)
	r0 := f.c.Rate()
	f.runEpoch(0)
	if f.c.Rate() <= r0 {
		t.Fatalf("rate did not grow: %d -> %d", r0, f.c.Rate())
	}
}

func TestRateBacksOffUnderStall(t *testing.T) {
	f := newFixture(t, Config{}, 1000, 1000)
	f.populate(t, 0, 500)
	f.runEpoch(0)
	f.runEpoch(0)
	grown := f.c.Rate()
	// Heavy stall: 10x the target.
	f.runEpoch(f.c.cfg.TargetStall * 10)
	f.runEpoch(f.c.cfg.TargetStall * 10)
	if f.c.Rate() >= grown {
		t.Fatalf("rate did not back off: %d -> %d", grown, f.c.Rate())
	}
}

func TestOffloadSwapsColdPages(t *testing.T) {
	f := newFixture(t, Config{}, 1000, 1000)
	f.populate(t, 0, 500)
	f.runEpoch(0)
	if f.sd.Used() == 0 {
		t.Fatal("no pages offloaded")
	}
	if f.c.SavedPages() <= 0 {
		t.Fatal("no memory saving")
	}
}

func TestOffloadSkipsReferencedPages(t *testing.T) {
	f := newFixture(t, Config{}, 1000, 1000)
	f.populate(t, 0, 100)
	// Mark everything referenced: nothing is cold.
	for pfn := mem.PFN(0); int(pfn) < f.store.Len(); pfn++ {
		pg := f.store.Page(pfn)
		pg.Flags = pg.Flags.Set(mem.PGReferenced)
	}
	f.runEpoch(0)
	if f.sd.Used() != 0 {
		t.Fatal("referenced pages swapped out")
	}
}

func TestTwoStageScope(t *testing.T) {
	solo := newFixture(t, Config{}, 100, 100)
	two := newFixture(t, Config{TwoStage: true}, 100, 100)
	if got := solo.c.NodeScope(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("solo scope = %v", got)
	}
	if got := two.c.NodeScope(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("two-stage scope = %v", got)
	}
}

func TestTwoStageSwapsFromCXL(t *testing.T) {
	f := newFixture(t, Config{TwoStage: true}, 1000, 1000)
	f.populate(t, 0, 200) // local pages: must NOT be touched
	f.populate(t, 1, 200) // CXL pages: offload source
	f.runEpoch(0)
	if f.sd.Used() == 0 {
		t.Fatal("two-stage offloaded nothing")
	}
	if f.topo.Node(0).Resident() != 200 {
		t.Fatal("two-stage touched the local node")
	}
	if f.topo.Node(1).Resident() >= 200 {
		t.Fatal("two-stage did not drain the CXL node")
	}
}

func TestAvgStallSmoothing(t *testing.T) {
	f := newFixture(t, Config{}, 100, 100)
	f.populate(t, 0, 50)
	f.runEpoch(0.01)
	first := f.c.AvgStall()
	if first <= 0 {
		t.Fatal("stall not recorded")
	}
	f.runEpoch(0)
	if f.c.AvgStall() >= first {
		t.Fatal("smoothed stall did not decay")
	}
	if f.c.AvgStall() <= 0 {
		t.Fatal("smoothed stall forgot history instantly")
	}
}

func TestRateBounds(t *testing.T) {
	f := newFixture(t, Config{InitialRate: 4, MaxRate: 8}, 1000, 1000)
	f.populate(t, 0, 500)
	for i := 0; i < 10; i++ {
		f.runEpoch(0)
	}
	if f.c.Rate() > 8 {
		t.Fatalf("rate exceeded max: %d", f.c.Rate())
	}
	for i := 0; i < 10; i++ {
		f.runEpoch(1)
	}
	if f.c.Rate() < 1 {
		t.Fatalf("rate below 1: %d", f.c.Rate())
	}
}
