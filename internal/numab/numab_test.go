package numab

import (
	"testing"

	"tppsim/internal/lru"
	"tppsim/internal/mem"
	"tppsim/internal/migrate"
	"tppsim/internal/pagetable"
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
	b     *Balancer
}

func newFixture(t *testing.T, cfg Config, localPages, cxlPages uint64) *fixture {
	t.Helper()
	topo, err := tier.NewCXLSystem(tier.Config{LocalPages: localPages, CXLPages: cxlPages})
	if err != nil {
		t.Fatal(err)
	}
	store := mem.NewStore(int(localPages + cxlPages))
	vecs := make([]*lru.Vec, topo.NumNodes())
	for i := range vecs {
		vecs[i] = lru.NewVec(store)
	}
	stat := vmstat.NewNodeStats(topo.NumNodes())
	eng := migrate.NewEngine(migrate.Config{RefsFailProb: -1, WatermarkGuard: true}, store, topo, vecs, stat, xrand.New(1))
	as := pagetable.New(1)
	b := New(cfg, store, topo, vecs, stat, eng, as)
	return &fixture{store, topo, vecs, stat, as, b}
}

// populate maps n pages of type pt on node id; active selects the LRU list.
func (f *fixture) populate(t *testing.T, id mem.NodeID, pt mem.PageType, n int, active bool) []mem.PFN {
	t.Helper()
	r := f.as.Mmap(uint64(n), pt)
	pfns := make([]mem.PFN, n)
	for i := 0; i < n; i++ {
		if !f.topo.Node(id).Acquire(pt) {
			t.Fatal("fixture node full")
		}
		pfn := f.store.Alloc(pt, id)
		f.vecs[id].Add(pfn, active)
		f.as.MapPage(r.Start+pagetable.VPN(i), pfn)
		pfns[i] = pfn
	}
	return pfns
}

// access is one CPU access to the page pfn at the VPN it is mapped at.
func (f *fixture) access(pfn mem.PFN) AccessOutcome {
	v, _ := f.as.VPNOf(pfn)
	return f.b.OnAccess(v, pfn, f.store.Page(pfn))
}

// runScans advances the balancer to the next scan boundary.
func (f *fixture) runScans(times int) {
	period := f.b.Config().ScanPeriodTicks
	for s := 0; s < times; s++ {
		for i := uint64(0); i < period; i++ {
			f.b.Tick()
		}
	}
}

func TestDisabledIsInert(t *testing.T) {
	f := newFixture(t, Config{}, 100, 100)
	pfns := f.populate(t, 1, mem.Anon, 10, true)
	f.runScans(3)
	if f.stat.Get(vmstat.NumaPagesScanned) != 0 {
		t.Fatal("disabled balancer scanned")
	}
	out := f.access(pfns[0])
	if out.HintFault || out.Promoted || out.LatencyNs != 0 {
		t.Fatal("disabled balancer produced outcomes")
	}
}

func TestScanPoisonsPages(t *testing.T) {
	f := newFixture(t, Config{Enabled: true, ScanSizePages: 5}, 100, 100)
	pfns := f.populate(t, 1, mem.Anon, 20, false)
	f.runScans(1)
	marked := 0
	for _, pfn := range pfns {
		if f.store.Page(pfn).Flags.Has(mem.PGHinted) {
			marked++
		}
	}
	if marked != 5 {
		t.Fatalf("marked %d pages, want 5", marked)
	}
	if f.stat.Get(vmstat.NumaPagesScanned) != 5 {
		t.Fatal("scan counter wrong")
	}
}

func TestScanCursorWraps(t *testing.T) {
	f := newFixture(t, Config{Enabled: true, ScanSizePages: 15}, 100, 100)
	pfns := f.populate(t, 1, mem.Anon, 20, false)
	f.runScans(2) // 30 > 20: must wrap and cover everything
	for i, pfn := range pfns {
		if !f.store.Page(pfn).Flags.Has(mem.PGHinted) {
			t.Fatalf("page %d never sampled", i)
		}
	}
}

func TestCXLOnlySkipsLocal(t *testing.T) {
	f := newFixture(t, Config{Enabled: true, CXLOnly: true, ScanSizePages: 100}, 100, 100)
	localPages := f.populate(t, 0, mem.Anon, 10, false)
	cxlPages := f.populate(t, 1, mem.Anon, 10, false)
	f.runScans(1)
	for _, pfn := range localPages {
		if f.store.Page(pfn).Flags.Has(mem.PGHinted) {
			t.Fatal("local page sampled under CXLOnly")
		}
	}
	for _, pfn := range cxlPages {
		if !f.store.Page(pfn).Flags.Has(mem.PGHinted) {
			t.Fatal("CXL page not sampled")
		}
	}
}

func TestHintFaultOnLocalNode(t *testing.T) {
	f := newFixture(t, Config{Enabled: true, ScanSizePages: 100}, 100, 100)
	pfns := f.populate(t, 0, mem.Anon, 5, false)
	f.runScans(1)
	out := f.access(pfns[0])
	if !out.HintFault || out.Promoted {
		t.Fatalf("outcome = %+v", out)
	}
	if out.LatencyNs != 1500 {
		t.Fatalf("latency = %v", out.LatencyNs)
	}
	if f.stat.Get(vmstat.NumaHintFaultsLocal) != 1 {
		t.Fatal("local hint fault not counted")
	}
	// Fault consumed: second access is clean.
	if out2 := f.access(pfns[0]); out2.HintFault {
		t.Fatal("hint fault not consumed")
	}
}

func TestClassicInstantPromotion(t *testing.T) {
	f := newFixture(t, Config{Enabled: true, ScanSizePages: 100}, 100, 100)
	// Inactive CXL page: classic NUMA balancing promotes it instantly.
	pfns := f.populate(t, 1, mem.Anon, 1, false)
	f.runScans(1)
	out := f.access(pfns[0])
	if !out.Promoted {
		t.Fatal("classic balancing did not promote")
	}
	if f.store.Page(pfns[0]).Node != 0 {
		t.Fatal("page not moved")
	}
	if f.stat.Get(vmstat.PgpromoteSuccess) != 1 {
		t.Fatal("promotion not counted")
	}
}

func TestActiveLRUFilterDefersInactivePage(t *testing.T) {
	f := newFixture(t, Config{Enabled: true, ActiveLRUFilter: true, CXLOnly: true,
		IgnoreAllocWatermark: true, ScanSizePages: 100}, 100, 100)
	pfns := f.populate(t, 1, mem.Anon, 1, false)
	f.runScans(1)

	// First hint fault: inactive -> activated, not promoted.
	out := f.access(pfns[0])
	if out.Promoted {
		t.Fatal("inactive page promoted instantly")
	}
	pg := f.store.Page(pfns[0])
	if !pg.Flags.Has(mem.PGActive) {
		t.Fatal("filter did not activate the page")
	}
	if f.stat.Get(vmstat.PgpromoteSampled) != 1 || f.stat.Get(vmstat.PgpromoteCandidate) != 0 {
		t.Fatal("filter counters wrong")
	}

	// Second scan + fault: now active -> promoted.
	f.runScans(1)
	out = f.access(pfns[0])
	if !out.Promoted {
		t.Fatal("active page not promoted on second fault")
	}
	if f.stat.Get(vmstat.PgpromoteCandidate) != 1 {
		t.Fatal("candidate counter wrong")
	}
}

func TestIgnoreAllocWatermarkPromotesUnderPressure(t *testing.T) {
	classic := newFixture(t, Config{Enabled: true, ScanSizePages: 100}, 1000, 1000)
	tpp := newFixture(t, Config{Enabled: true, IgnoreAllocWatermark: true, ScanSizePages: 100}, 1000, 1000)
	for _, f := range []*fixture{classic, tpp} {
		// Fill local between min and alloc watermark.
		local := f.topo.Node(0)
		for local.Free() > local.WM.Min+2 {
			local.Acquire(mem.Anon)
		}
	}
	cp := classic.populate(t, 1, mem.Anon, 1, true)
	tp := tpp.populate(t, 1, mem.Anon, 1, true)
	classic.runScans(1)
	tpp.runScans(1)

	if out := classic.access(cp[0]); out.Promoted {
		t.Fatal("classic promoted below alloc watermark")
	}
	if classic.stat.Get(vmstat.PromoteFailLowMem) != 1 {
		t.Fatal("classic failure not counted")
	}
	if out := tpp.access(tp[0]); !out.Promoted {
		t.Fatal("TPP did not promote despite watermark bypass")
	}
}

func TestPromotionStopsAtMinWatermark(t *testing.T) {
	f := newFixture(t, Config{Enabled: true, IgnoreAllocWatermark: true, ScanSizePages: 100}, 1000, 1000)
	local := f.topo.Node(0)
	for local.Free() > local.WM.Min {
		local.Acquire(mem.Anon)
	}
	pfns := f.populate(t, 1, mem.Anon, 1, true)
	f.runScans(1)
	if out := f.access(pfns[0]); out.Promoted {
		t.Fatal("promotion dipped into the emergency reserve")
	}
	if f.stat.Get(vmstat.PromoteFailLowMem) == 0 {
		t.Fatal("low-mem failure not counted")
	}
}

func TestPromotedPageLandsActive(t *testing.T) {
	f := newFixture(t, Config{Enabled: true, ActiveLRUFilter: true, CXLOnly: true,
		IgnoreAllocWatermark: true, ScanSizePages: 100}, 100, 100)
	pfns := f.populate(t, 1, mem.Anon, 1, true)
	f.runScans(1)
	out := f.access(pfns[0])
	if !out.Promoted {
		t.Fatal("not promoted")
	}
	pg := f.store.Page(pfns[0])
	if pg.Node != 0 || !pg.Flags.Has(mem.PGActive) {
		t.Fatalf("promoted page state wrong: %+v", pg)
	}
	if f.vecs[0].Size(lru.ActiveAnon) != 1 {
		t.Fatal("promoted page not on local active list")
	}
}

func TestScanOverheadReported(t *testing.T) {
	f := newFixture(t, Config{Enabled: true, ScanSizePages: 50}, 100, 100)
	f.populate(t, 1, mem.Anon, 60, false)
	period := f.b.Config().ScanPeriodTicks
	var spent float64
	for i := uint64(0); i < period; i++ {
		spent += f.b.Tick()
	}
	if spent <= 0 {
		t.Fatal("scan reported no CPU cost")
	}
}
