package migrate

import (
	"errors"
	"testing"

	"tppsim/internal/lru"
	"tppsim/internal/mem"
	"tppsim/internal/tier"
	"tppsim/internal/vmstat"
	"tppsim/internal/xrand"
)

type fixture struct {
	store *mem.Store
	topo  *tier.Topology
	vecs  []*lru.Vec
	stat  *vmstat.NodeStats
	eng   *Engine
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
	vecs := []*lru.Vec{lru.NewVec(store), lru.NewVec(store)}
	stat := vmstat.NewNodeStats(topo.NumNodes())
	eng := NewEngine(cfg, store, topo, vecs, stat, xrand.New(1))
	return &fixture{store: store, topo: topo, vecs: vecs, stat: stat, eng: eng}
}

// allocOn places a fresh page of type pt on node id, on the LRU.
func (f *fixture) allocOn(t *testing.T, id mem.NodeID, pt mem.PageType, active bool) mem.PFN {
	t.Helper()
	if !f.topo.Node(id).Acquire(pt) {
		t.Fatal("node full in fixture")
	}
	pfn := f.store.Alloc(pt, id)
	f.vecs[id].Add(pfn, active)
	return pfn
}

func TestDemotionMovesPage(t *testing.T) {
	f := newFixture(t, Config{RefsFailProb: -1}, 100, 100)
	pfn := f.allocOn(t, 0, mem.File, false)
	cost, err := f.eng.Migrate(pfn, 1, Demotion)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 3_000 {
		t.Fatalf("cost = %v", cost)
	}
	pg := f.store.Page(pfn)
	if pg.Node != 1 {
		t.Fatal("page node not updated")
	}
	if !pg.Flags.Has(mem.PGDemoted) {
		t.Fatal("PG_demoted not set")
	}
	if pg.Flags.Has(mem.PGActive) {
		t.Fatal("demoted page landed active")
	}
	if f.vecs[1].Size(lru.InactiveFile) != 1 || f.vecs[0].TotalSize() != 0 {
		t.Fatal("LRU membership wrong after demotion")
	}
	if f.topo.Node(0).Resident() != 0 || f.topo.Node(1).Resident() != 1 {
		t.Fatal("node accounting wrong")
	}
	if f.stat.Get(vmstat.PgdemoteFile) != 1 || f.stat.Get(vmstat.PgmigrateSuccess) != 1 {
		t.Fatal("counters wrong")
	}
}

func TestPromotionClearsDemotedAndCountsPingPong(t *testing.T) {
	f := newFixture(t, Config{RefsFailProb: -1}, 100, 100)
	pfn := f.allocOn(t, 0, mem.Anon, false)
	if _, err := f.eng.Migrate(pfn, 1, Demotion); err != nil {
		t.Fatal(err)
	}
	if _, err := f.eng.Migrate(pfn, 0, Promotion); err != nil {
		t.Fatal(err)
	}
	pg := f.store.Page(pfn)
	if pg.Flags.Has(mem.PGDemoted) {
		t.Fatal("PG_demoted survived promotion")
	}
	if !pg.Flags.Has(mem.PGActive) {
		t.Fatal("promoted page not on active list")
	}
	if f.stat.Get(vmstat.PgpromoteDemoted) != 1 {
		t.Fatal("ping-pong not counted")
	}
	if f.stat.Get(vmstat.PgpromoteSuccess) != 1 || f.stat.Get(vmstat.PgpromoteAnon) != 1 {
		t.Fatal("promotion counters wrong")
	}
}

func TestPromotionWithoutDemotionNoPingPong(t *testing.T) {
	f := newFixture(t, Config{RefsFailProb: -1}, 100, 100)
	pfn := f.allocOn(t, 1, mem.Anon, true)
	if _, err := f.eng.Migrate(pfn, 0, Promotion); err != nil {
		t.Fatal(err)
	}
	if f.stat.Get(vmstat.PgpromoteDemoted) != 0 {
		t.Fatal("spurious ping-pong count")
	}
}

func TestTargetFull(t *testing.T) {
	f := newFixture(t, Config{RefsFailProb: -1}, 100, 1)
	// Fill the CXL node.
	f.allocOn(t, 1, mem.Anon, false)
	pfn := f.allocOn(t, 0, mem.File, false)
	_, err := f.eng.Migrate(pfn, 1, Demotion)
	if !errors.Is(err, ErrTargetFull) {
		t.Fatalf("err = %v, want ErrTargetFull", err)
	}
	// Page must be back on its source LRU, unharmed.
	pg := f.store.Page(pfn)
	if pg.Node != 0 || !pg.Flags.Has(mem.PGOnLRU) || pg.Flags.Has(mem.PGIsolated) {
		t.Fatalf("failed migration corrupted page: %+v", pg)
	}
	if f.vecs[0].Size(lru.InactiveFile) != 1 {
		t.Fatal("page not put back")
	}
	if f.stat.Get(vmstat.PgmigrateFail) != 1 || f.stat.Get(vmstat.PgdemoteFail) != 1 {
		t.Fatal("failure counters wrong")
	}
}

func TestPromotionFailLowMemCounter(t *testing.T) {
	f := newFixture(t, Config{RefsFailProb: -1}, 1, 100)
	f.allocOn(t, 0, mem.Anon, false) // fill local
	pfn := f.allocOn(t, 1, mem.Anon, true)
	_, err := f.eng.Migrate(pfn, 0, Promotion)
	if !errors.Is(err, ErrTargetFull) {
		t.Fatalf("err = %v", err)
	}
	if f.stat.Get(vmstat.PromoteFailLowMem) != 1 {
		t.Fatal("promote_fail_low_memory not counted")
	}
}

func TestWatermarkGuard(t *testing.T) {
	f := newFixture(t, Config{RefsFailProb: -1, WatermarkGuard: true}, 1000, 1000)
	// Fill local down to exactly the min watermark.
	local := f.topo.Node(0)
	for local.Free() > local.WM.Min {
		f.allocOn(t, 0, mem.Anon, false)
	}
	pfn := f.allocOn(t, 1, mem.Anon, true)
	if _, err := f.eng.Migrate(pfn, 0, Promotion); !errors.Is(err, ErrTargetFull) {
		t.Fatalf("watermark guard did not refuse: %v", err)
	}
}

func TestUnevictableRefused(t *testing.T) {
	f := newFixture(t, Config{RefsFailProb: -1}, 10, 10)
	pfn := f.allocOn(t, 0, mem.Anon, false)
	f.store.Page(pfn).Flags = f.store.Page(pfn).Flags.Set(mem.PGUnevictable)
	if _, err := f.eng.Migrate(pfn, 1, Demotion); !errors.Is(err, ErrBusy) {
		t.Fatalf("unevictable migrated: %v", err)
	}
}

func TestOffLRURefused(t *testing.T) {
	f := newFixture(t, Config{RefsFailProb: -1}, 10, 10)
	f.topo.Node(0).Acquire(mem.Anon)
	pfn := f.store.Alloc(mem.Anon, 0) // never added to LRU
	if _, err := f.eng.Migrate(pfn, 1, Demotion); !errors.Is(err, ErrBusy) {
		t.Fatalf("off-LRU page migrated: %v", err)
	}
}

func TestSameNodeRejected(t *testing.T) {
	f := newFixture(t, Config{RefsFailProb: -1}, 10, 10)
	pfn := f.allocOn(t, 0, mem.Anon, false)
	if _, err := f.eng.Migrate(pfn, 0, Promotion); err == nil {
		t.Fatal("same-node migration accepted")
	}
}

func TestRefsFailureInjection(t *testing.T) {
	f := newFixture(t, Config{RefsFailProb: 1}, 10, 10) // always fail
	pfn := f.allocOn(t, 0, mem.Anon, false)
	if _, err := f.eng.Migrate(pfn, 1, Demotion); !errors.Is(err, ErrRefs) {
		t.Fatalf("err = %v, want ErrRefs", err)
	}
	// Page restored.
	if !f.store.Page(pfn).Flags.Has(mem.PGOnLRU) {
		t.Fatal("page lost after refs failure")
	}
}

func TestWindowAccounting(t *testing.T) {
	f := newFixture(t, Config{RefsFailProb: -1}, 100, 100)
	for i := 0; i < 5; i++ {
		pfn := f.allocOn(t, 0, mem.Anon, false)
		if _, err := f.eng.Migrate(pfn, 1, Demotion); err != nil {
			t.Fatal(err)
		}
	}
	if f.eng.MovedPages() != 5 {
		t.Fatal("MovedPages wrong")
	}
	if f.eng.TakeWindow() != 5 {
		t.Fatal("TakeWindow wrong")
	}
	if f.eng.TakeWindow() != 0 {
		t.Fatal("window not reset")
	}
	if f.eng.MovedPages() != 5 {
		t.Fatal("MovedPages reset by TakeWindow")
	}
}

// Invariant: migration conserves pages — total resident across nodes is
// unchanged by any outcome.
func TestConservation(t *testing.T) {
	f := newFixture(t, Config{RefsFailProb: 0.5}, 50, 5)
	rng := xrand.New(99)
	var pfns []mem.PFN
	for i := 0; i < 40; i++ {
		pfns = append(pfns, f.allocOn(t, 0, mem.Anon, rng.Bool(0.5)))
	}
	for i := 0; i < 4; i++ {
		pfns = append(pfns, f.allocOn(t, 1, mem.Anon, true))
	}
	total := f.topo.Node(0).Resident() + f.topo.Node(1).Resident()
	for i := 0; i < 500; i++ {
		pfn := pfns[rng.Intn(len(pfns))]
		pg := f.store.Page(pfn)
		if pg.Node == 0 {
			f.eng.Migrate(pfn, 1, Demotion)
		} else {
			f.eng.Migrate(pfn, 0, Promotion)
		}
		if got := f.topo.Node(0).Resident() + f.topo.Node(1).Resident(); got != total {
			t.Fatalf("pages not conserved: %d != %d at step %d", got, total, i)
		}
	}
	for id := 0; id < 2; id++ {
		if err := f.vecs[id].CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
