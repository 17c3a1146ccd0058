package alloc

import (
	"errors"
	"testing"

	"tppsim/internal/lru"
	"tppsim/internal/mem"
	"tppsim/internal/tier"
	"tppsim/internal/vmstat"
)

type fixture struct {
	store *mem.Store
	topo  *tier.Topology
	vecs  []*lru.Vec
	stat  *vmstat.NodeStats
	a     *Allocator
}

func newFixture(t *testing.T, cfg Config, localPages, cxlPages uint64) *fixture {
	t.Helper()
	spec := tier.Spec{Nodes: []tier.NodeSpec{{Kind: mem.KindLocal, Pages: localPages}}}
	if cxlPages > 0 {
		spec.Nodes = append(spec.Nodes, tier.NodeSpec{Kind: mem.KindCXL, Pages: cxlPages})
	}
	topo, err := spec.Build(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	store := mem.NewStore(int(localPages + cxlPages))
	vecs := make([]*lru.Vec, topo.NumNodes())
	for i := range vecs {
		vecs[i] = lru.NewVec(store)
	}
	stat := vmstat.NewNodeStats(topo.NumNodes())
	return &fixture{store, topo, vecs, stat, New(cfg, store, topo, vecs, stat)}
}

func TestAllocPrefersLocal(t *testing.T) {
	f := newFixture(t, Config{}, 1000, 1000)
	r, err := f.a.AllocPage(mem.Anon, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Node != 0 || r.StallNs != 0 {
		t.Fatalf("result = %+v", r)
	}
	if f.store.Page(r.PFN).Node != 0 {
		t.Fatal("page node wrong")
	}
	if !f.store.Page(r.PFN).Flags.Has(mem.PGOnLRU) || f.store.Page(r.PFN).Flags.Has(mem.PGActive) {
		t.Fatal("new page should start on inactive LRU")
	}
	if f.stat.Get(vmstat.PgallocLocal) != 1 {
		t.Fatal("pgalloc_local not counted")
	}
}

func TestFallbackToCXLWhenLocalLow(t *testing.T) {
	f := newFixture(t, Config{}, 1000, 1000)
	local := f.topo.Node(0)
	// Fill local to the low watermark; fast path must move to CXL.
	for local.Free() > local.WM.Low {
		local.Acquire(mem.Anon)
	}
	r, err := f.a.AllocPage(mem.Anon, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Node != 1 {
		t.Fatalf("allocated on node %d, want CXL fallback", r.Node)
	}
	if f.stat.Get(vmstat.PgallocCXL) != 1 {
		t.Fatal("pgalloc_cxl not counted")
	}
}

func TestDecoupledGateUsesAllocWatermark(t *testing.T) {
	f := newFixture(t, Config{Decoupled: true}, 1000, 1000)
	local := f.topo.Node(0)
	// Between demote WM (40) and alloc WM (10): decoupled allocation must
	// still land locally even though reclaim would be running.
	for local.Free() > local.WM.Demote-5 {
		local.Acquire(mem.Anon)
	}
	r, err := f.a.AllocPage(mem.Anon, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Node != 0 {
		t.Fatalf("decoupled alloc went to node %d", r.Node)
	}
}

func TestWakeKswapdOnPressure(t *testing.T) {
	f := newFixture(t, Config{Decoupled: true}, 1000, 1000)
	var woken []mem.NodeID
	f.a.WakeKswapd = func(id mem.NodeID) { woken = append(woken, id) }
	local := f.topo.Node(0)
	for local.Free() > local.WM.Demote-1 {
		local.Acquire(mem.Anon)
	}
	if _, err := f.a.AllocPage(mem.Anon, 0); err != nil {
		t.Fatal(err)
	}
	if len(woken) == 0 || woken[0] != 0 {
		t.Fatalf("kswapd not woken: %v", woken)
	}
}

func TestNoWakeWithoutPressure(t *testing.T) {
	f := newFixture(t, Config{}, 1000, 1000)
	woken := false
	f.a.WakeKswapd = func(mem.NodeID) { woken = true }
	if _, err := f.a.AllocPage(mem.Anon, 0); err != nil {
		t.Fatal(err)
	}
	if woken {
		t.Fatal("kswapd woken on a pressure-free machine")
	}
}

func TestPageTypeAwareOrder(t *testing.T) {
	f := newFixture(t, Config{PageTypeAware: true}, 1000, 1000)
	if got := f.a.NodeOrder(mem.File, 0); got[0] != 1 {
		t.Fatalf("file order = %v, want CXL first", got)
	}
	if got := f.a.NodeOrder(mem.Tmpfs, 0); got[0] != 1 {
		t.Fatalf("tmpfs order = %v, want CXL first", got)
	}
	if got := f.a.NodeOrder(mem.Anon, 0); got[0] != 0 {
		t.Fatalf("anon order = %v, want local first", got)
	}
	// Allocation follows the order.
	r, err := f.a.AllocPage(mem.File, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Node != 1 {
		t.Fatalf("file page allocated on node %d, want CXL", r.Node)
	}
}

// TestAllocPageDoesNotAllocate pins the fault path's zonelist lookup
// allocation-free: an allocate/free cycle costs no Go allocation for
// either order (plain fallback or page-type-aware CXL-first).
func TestAllocPageDoesNotAllocate(t *testing.T) {
	f := newFixture(t, Config{Decoupled: true, PageTypeAware: true}, 1000, 1000)
	for _, pt := range []mem.PageType{mem.Anon, mem.File} {
		allocs := testing.AllocsPerRun(100, func() {
			r, err := f.a.AllocPage(pt, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.a.FreePage(r.PFN)
		})
		if allocs != 0 {
			t.Fatalf("AllocPage(%v) allocates %v times per call", pt, allocs)
		}
	}
}

func TestPageTypeAwareWithoutCXL(t *testing.T) {
	f := newFixture(t, Config{PageTypeAware: true}, 1000, 0)
	if got := f.a.NodeOrder(mem.File, 0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("order on CXL-less machine = %v", got)
	}
}

func TestDirectReclaimPath(t *testing.T) {
	f := newFixture(t, Config{}, 100, 100)
	// Fill everything to the min watermark.
	for _, id := range []mem.NodeID{0, 1} {
		n := f.topo.Node(id)
		for n.Free() > n.WM.Min {
			n.Acquire(mem.Anon)
		}
	}
	called := false
	f.a.DirectReclaim = func(node mem.NodeID, want uint64) (uint64, float64) {
		called = true
		// Free 2 pages on the node.
		f.topo.Node(node).Release(mem.Anon)
		f.topo.Node(node).Release(mem.Anon)
		return 2, 50_000
	}
	r, err := f.a.AllocPage(mem.Anon, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("direct reclaim not invoked")
	}
	if r.StallNs != 50_000 {
		t.Fatalf("stall = %v", r.StallNs)
	}
	if f.stat.Get(vmstat.PgallocStall) != 1 {
		t.Fatal("allocstall not counted")
	}
}

func TestOOM(t *testing.T) {
	f := newFixture(t, Config{}, 10, 10)
	for _, id := range []mem.NodeID{0, 1} {
		n := f.topo.Node(id)
		for n.Free() > 0 {
			n.Acquire(mem.Anon)
		}
	}
	_, err := f.a.AllocPage(mem.Anon, 0)
	if !errors.Is(err, ErrOOM) {
		t.Fatalf("err = %v, want ErrOOM", err)
	}
}

func TestFreePage(t *testing.T) {
	f := newFixture(t, Config{}, 100, 100)
	r, err := f.a.AllocPage(mem.Tmpfs, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := f.topo.Node(0).Free()
	f.a.FreePage(r.PFN)
	if f.topo.Node(0).Free() != before+1 {
		t.Fatal("FreePage did not release residency")
	}
	if f.vecs[0].TotalSize() != 0 {
		t.Fatal("FreePage left page on LRU")
	}
	if f.store.Live() != 0 {
		t.Fatal("FreePage did not free the store object")
	}
	if f.stat.Get(vmstat.PgfreeCt) != 1 {
		t.Fatal("pgfree not counted")
	}
}

func TestEmergencyPassDipsToMin(t *testing.T) {
	f := newFixture(t, Config{}, 1000, 1000)
	// Push both nodes below low but above min.
	for _, id := range []mem.NodeID{0, 1} {
		n := f.topo.Node(id)
		for n.Free() > n.WM.Low-2 {
			n.Acquire(mem.Anon)
		}
	}
	r, err := f.a.AllocPage(mem.Anon, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Node != 0 {
		t.Fatalf("emergency pass allocated on %d, want preferred node 0", r.Node)
	}
}
