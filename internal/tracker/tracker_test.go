package tracker

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"tppsim/internal/lru"
	"tppsim/internal/mem"
	"tppsim/internal/migrate"
	"tppsim/internal/tier"
	"tppsim/internal/vmstat"
	"tppsim/internal/xrand"
)

// fixture is a hand-built two-node machine (local + CXL) for driving
// trackers and the mover outside the simulator.
type fixture struct {
	store *mem.Store
	topo  *tier.Topology
	vecs  []*lru.Vec
	stat  *vmstat.NodeStats
	env   Env
}

func newFixture(t *testing.T, localPages, cxlPages uint64, withEngine bool) *fixture {
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
	f := &fixture{
		store: store,
		topo:  topo,
		vecs:  vecs,
		stat:  stat,
		env:   Env{Store: store, Topo: topo, Stat: stat, Seed: 1},
	}
	if withEngine {
		f.env.Engine = migrate.NewEngine(migrate.Config{RefsFailProb: -1}, store, topo, vecs, stat, xrand.New(1))
	}
	return f
}

// allocOn places count fresh pages of type pt on node id, on the LRU,
// returning the first PFN.
func (f *fixture) allocOn(t *testing.T, id mem.NodeID, pt mem.PageType, count int) mem.PFN {
	t.Helper()
	first := mem.PFN(0)
	for i := 0; i < count; i++ {
		if !f.topo.Node(id).Acquire(pt) {
			t.Fatal("node full in fixture")
		}
		pfn := f.store.Alloc(pt, id)
		f.vecs[id].Add(pfn, false)
		if i == 0 {
			first = pfn
		}
	}
	return first
}

func TestAccessBits(t *testing.T) {
	b := NewAccessBits(200, 1)
	if b.NumGranules() != 200 || b.Granule() != 1 {
		t.Fatalf("granules=%d granule=%d", b.NumGranules(), b.Granule())
	}
	b.Set(7)
	if !b.Test(7) || b.Test(8) {
		t.Fatal("Set/Test wrong")
	}
	if !b.TestClear(7) || b.Test(7) || b.TestClear(7) {
		t.Fatal("TestClear wrong")
	}

	// Granule 4: PFNs 0..3 share granule 0; 200 pages round up to 50.
	b = NewAccessBits(200, 4)
	if b.NumGranules() != 50 {
		t.Fatalf("granules=%d, want 50", b.NumGranules())
	}
	b.Set(3)
	if !b.Test(0) || !b.Test(3) || b.Test(4) {
		t.Fatal("granule sharing wrong")
	}
	if !testClearGranule(b, 0) || b.Test(0) {
		t.Fatal("testClearGranule wrong")
	}

	// Rounding: 201 pages at granule 4 needs 51 granules.
	if g := NewAccessBits(201, 4).NumGranules(); g != 51 {
		t.Fatalf("granules=%d, want 51", g)
	}
}

func TestHeatmapWindowMath(t *testing.T) {
	// 256 pages, 64-page ranges, half-life 64 ticks.
	hm := NewHeatmap(256, 64, 64)
	if hm.NumRanges() != 4 {
		t.Fatalf("ranges=%d", hm.NumRanges())
	}
	d := math.Pow(0.5, 16.0/64)
	hm.BeginWindow(16)
	hm.Add(0, 32)
	want := (1 - d) * 32
	if got := hm.Heat(0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("heat after one window = %v, want %v", got, want)
	}
	// Second window: decay then fold again.
	hm.BeginWindow(16)
	hm.Add(0, 64)
	want = want*d + (1-d)*64
	if got := hm.Heat(0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("heat after two windows = %v, want %v", got, want)
	}
	if got := hm.HeatPerPage(0); math.Abs(got-want/64) > 1e-12 {
		t.Fatalf("per-page heat = %v, want %v", got, want/64)
	}
	// Steady full touching converges toward rangePages.
	for i := 0; i < 400; i++ {
		hm.BeginWindow(16)
		hm.Add(0, 64)
	}
	if got := hm.HeatPerPage(0); math.Abs(got-1) > 1e-6 {
		t.Fatalf("converged per-page heat = %v, want ~1", got)
	}
	// Untouched ranges stay cold.
	if hm.Heat(3) != 0 {
		t.Fatal("untouched range has heat")
	}
}

func TestHeatmapShortTailRange(t *testing.T) {
	hm := NewHeatmap(200, 64, 64)
	if hm.NumRanges() != 4 {
		t.Fatalf("ranges=%d", hm.NumRanges())
	}
	s, e := hm.RangeSpan(3)
	if s != 192 || e != 200 {
		t.Fatalf("tail span [%d,%d), want [192,200)", s, e)
	}
	if hm.RangeOf(199) != 3 || hm.RangeOf(64) != 1 {
		t.Fatal("RangeOf wrong")
	}
	hm.BeginWindow(16)
	hm.Add(3, 8)
	// Per-page heat divides by the short span, not the nominal size.
	d := math.Pow(0.5, 16.0/64)
	if got, want := hm.HeatPerPage(3), (1-d)*8/8; math.Abs(got-want) > 1e-12 {
		t.Fatalf("tail per-page heat = %v, want %v", got, want)
	}
}

func TestClassify(t *testing.T) {
	p := PolicyConfig{}.WithDefaults()
	cases := []struct {
		heat float64
		want Class
	}{
		{0, Cold}, {0.05, Cold}, {0.051, Warm}, {0.39, Warm}, {0.40, Hot}, {1, Hot},
	}
	for _, tc := range cases {
		if got := p.Classify(tc.heat); got != tc.want {
			t.Errorf("Classify(%v) = %v, want %v", tc.heat, got, tc.want)
		}
	}
}

func TestTrendForecaster(t *testing.T) {
	f := NewTrendForecaster(3)
	dst := make([]float64, 3)
	f.Forecast(dst, []float64{2, 0, 5})
	// First window: prev is zero, so forecast doubles.
	if dst[0] != 4 || dst[1] != 0 || dst[2] != 10 {
		t.Fatalf("first forecast = %v", dst)
	}
	f.Forecast(dst, []float64{3, 0, 1})
	// 3 + (3-2) = 4; 1 + (1-5) clamps at 0.
	if dst[0] != 4 || dst[1] != 0 || dst[2] != 0 {
		t.Fatalf("second forecast = %v", dst)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	cases := []Config{
		{},
		{Kind: "idlepage"},
		{Kind: "softdirty", ScanEveryTicks: 4, GranularityPages: 8},
		{Kind: "damon", RegionBudget: 64, SamplesPerTick: 32, HalflifeTicks: 12.5, Oracle: true, Seed: 9},
	}
	for _, c := range cases {
		spec := c.Spec()
		back, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		if c.On() && back.WithDefaults() != c.WithDefaults() {
			t.Fatalf("round trip %q: got %+v, want %+v", spec, back.WithDefaults(), c.WithDefaults())
		}
		if !c.On() && back.On() {
			t.Fatalf("off config round-tripped on: %q", spec)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"nosuch",
		"idlepage:gran=3",          // not a power of two
		"idlepage:range=8,gran=16", // range < granularity
		"damon:regions=1",          // budget too small
		"idlepage:bogus=1",         // unknown key
		"idlepage:scan",            // malformed pair
		"idlepage:scan=notanumber", // bad value
		"idlepage:halflife=NaN",    // NaN heat
		"idlepage:halflife=-5",     // negative heat
		"idlepage:halflife=+Inf",   // heat never decays
		"idlepage:halflife=Inf",
		"damon:samples=-4", // no samples drawn
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted", spec)
		}
	}
}

func TestBitTrackerScan(t *testing.T) {
	f := newFixture(t, 100, 100, false)
	f.allocOn(t, 0, mem.Anon, 100)
	f.allocOn(t, 1, mem.Anon, 100)

	trk, err := New(Config{Kind: "idlepage", ScanEveryTicks: 16, HalflifeTicks: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := trk.Start(f.env); err != nil {
		t.Fatal(err)
	}
	hm := NewHeatmap(f.env.pfnSpace(), 64, 64)
	for pfn := 0; pfn < 10; pfn++ {
		trk.OnAccess(mem.PFN(pfn), f.store.Page(mem.PFN(pfn)))
	}
	if trk.Tick(8, hm) {
		t.Fatal("scanned before the period")
	}
	if !trk.Tick(16, hm) {
		t.Fatal("no scan at the period")
	}
	d := math.Pow(0.5, 16.0/64)
	if got, want := hm.Heat(0), (1-d)*10; math.Abs(got-want) > 1e-12 {
		t.Fatalf("range-0 heat = %v, want %v", got, want)
	}
	// Every allocated page was checked, attributed to its node.
	if got := f.stat.GetNode(0, vmstat.TrackerPagesScanned); got != 100 {
		t.Fatalf("node-0 scans = %d, want 100", got)
	}
	if got := f.stat.GetNode(1, vmstat.TrackerPagesScanned); got != 100 {
		t.Fatalf("node-1 scans = %d, want 100", got)
	}
	// The scan cleared the bits: the next fold only decays.
	if !trk.Tick(32, hm) {
		t.Fatal("no scan at the second period")
	}
	if got, want := hm.Heat(0), (1-d)*10*d; math.Abs(got-want) > 1e-12 {
		t.Fatalf("decayed heat = %v, want %v", got, want)
	}
}

func TestBitTrackerGranularity(t *testing.T) {
	f := newFixture(t, 100, 100, false)
	f.allocOn(t, 0, mem.Anon, 100)
	f.allocOn(t, 1, mem.Anon, 100)

	trk, err := New(Config{Kind: "idlepage", ScanEveryTicks: 16, GranularityPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := trk.Start(f.env); err != nil {
		t.Fatal(err)
	}
	hm := NewHeatmap(f.env.pfnSpace(), 64, 64)
	trk.OnAccess(2, f.store.Page(2)) // marks granule [0,4)
	trk.Tick(16, hm)
	d := math.Pow(0.5, 16.0/64)
	// One touched granule folds its whole 4-page span.
	if got, want := hm.Heat(0), (1-d)*4; math.Abs(got-want) > 1e-12 {
		t.Fatalf("heat = %v, want %v", got, want)
	}
	// Scan checks one representative page per granule: 200/4 = 50.
	if got := f.stat.Get(vmstat.TrackerPagesScanned); got != 50 {
		t.Fatalf("scans = %d, want 50", got)
	}
}

func TestSoftDirtyMissesCleanReads(t *testing.T) {
	f := newFixture(t, 100, 100, false)
	f.allocOn(t, 0, mem.Anon, 2)
	f.store.Page(1).Flags = f.store.Page(1).Flags.Set(mem.PGDirty)

	trk, err := New(Config{Kind: "softdirty", ScanEveryTicks: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := trk.Start(f.env); err != nil {
		t.Fatal(err)
	}
	hm := NewHeatmap(f.env.pfnSpace(), 64, 64)
	trk.OnAccess(0, f.store.Page(0)) // clean read: invisible
	trk.OnAccess(1, f.store.Page(1)) // dirty page: seen
	trk.Tick(16, hm)
	d := math.Pow(0.5, 16.0/64)
	if got, want := hm.Heat(0), (1-d)*1; math.Abs(got-want) > 1e-12 {
		t.Fatalf("heat = %v, want %v (the clean read must not count)", got, want)
	}
}

// checkRegionsTile asserts the damon invariant: regions are sorted,
// contiguous, and exactly tile the capacity PFN space.
func checkRegionsTile(t *testing.T, d *damon, total int) {
	t.Helper()
	if len(d.regions) == 0 {
		t.Fatal("no regions")
	}
	if len(d.regions) > d.cfg.RegionBudget {
		t.Fatalf("%d regions exceed budget %d", len(d.regions), d.cfg.RegionBudget)
	}
	at := 0
	for i, r := range d.regions {
		if r.start != at || r.end <= r.start {
			t.Fatalf("region %d = [%d,%d), expected start %d", i, r.start, r.end, at)
		}
		at = r.end
	}
	if at != total {
		t.Fatalf("regions end at %d, want %d", at, total)
	}
}

func TestDamonAdaptsAndTiles(t *testing.T) {
	f := newFixture(t, 100, 100, false)
	f.allocOn(t, 0, mem.Anon, 100)
	f.allocOn(t, 1, mem.Anon, 100)

	cfg := Config{Kind: "damon", ScanEveryTicks: 4, RegionBudget: 16, SamplesPerTick: 64, Seed: 3}
	trk, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := trk.Start(f.env); err != nil {
		t.Fatal(err)
	}
	d := trk.(*damon)
	checkRegionsTile(t, d, 200)

	hm := NewHeatmap(f.env.pfnSpace(), 64, 64)
	for tick := uint64(1); tick <= 64; tick++ {
		// A hot head: pages 0..31 touched every tick, the rest never.
		for pfn := 0; pfn < 32; pfn++ {
			trk.OnAccess(mem.PFN(pfn), f.store.Page(mem.PFN(pfn)))
		}
		folded := trk.Tick(tick, hm)
		if folded != (tick%4 == 0) {
			t.Fatalf("tick %d folded=%v", tick, folded)
		}
		checkRegionsTile(t, d, 200)
	}
	if f.stat.Get(vmstat.TrackerRegionsSplit) == 0 {
		t.Fatal("no splits recorded")
	}
	if f.stat.Get(vmstat.TrackerRegionsMerged) == 0 {
		t.Fatal("no merges recorded")
	}
	// Sampling budget: every sample landed on an allocated page, so the
	// scan counter paid exactly the budget each tick.
	if got, want := f.stat.Get(vmstat.TrackerPagesScanned), uint64(64*64); got != want {
		t.Fatalf("scans = %d, want %d", got, want)
	}
	// The hot head must be hotter than the never-touched tail.
	if hm.HeatPerPage(0) <= hm.HeatPerPage(2) {
		t.Fatalf("hot range %v not hotter than cold range %v", hm.HeatPerPage(0), hm.HeatPerPage(2))
	}
}

func TestDamonDeterminism(t *testing.T) {
	run := func() ([]damonRegion, []float64) {
		f := newFixture(t, 100, 100, false)
		f.allocOn(t, 0, mem.Anon, 100)
		f.allocOn(t, 1, mem.Anon, 100)
		trk, err := New(Config{Kind: "damon", ScanEveryTicks: 4, RegionBudget: 16, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if err := trk.Start(f.env); err != nil {
			t.Fatal(err)
		}
		hm := NewHeatmap(f.env.pfnSpace(), 64, 64)
		for tick := uint64(1); tick <= 32; tick++ {
			for pfn := 40; pfn < 80; pfn++ {
				trk.OnAccess(mem.PFN(pfn), f.store.Page(mem.PFN(pfn)))
			}
			trk.Tick(tick, hm)
		}
		d := trk.(*damon)
		return append([]damonRegion(nil), d.regions...), append([]float64(nil), hm.Heats()...)
	}
	r1, h1 := run()
	r2, h2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("same seed produced different regions")
	}
	if !reflect.DeepEqual(h1, h2) {
		t.Fatal("same seed produced different heat")
	}
}

// hotHeatmap builds a heatmap whose given range reads as fully hot and
// everything else cold.
func hotHeatmap(env Env, hotRange int) *Heatmap {
	hm := NewHeatmap(env.pfnSpace(), 64, 1)
	hm.BeginWindow(32) // decay ~ 0, gain ~ 1
	s, e := hm.RangeSpan(hotRange)
	hm.Add(hotRange, float64(e-s))
	return hm
}

func TestMoverPromotesHotWithinBudget(t *testing.T) {
	f := newFixture(t, 100, 100, true)
	f.allocOn(t, 0, mem.Anon, 50)  // PFNs 0..49 local
	f.allocOn(t, 1, mem.Anon, 100) // PFNs 50..149 on CXL

	// Range 1 (PFNs 64..127) is entirely CXL-resident and hot.
	hm := hotHeatmap(f.env, 1)
	mv := NewMover(PolicyConfig{PagesPerTick: 8}, f.env, hm)
	mv.Tick()

	if got := f.stat.GetNode(0, vmstat.MoverPagesMoved); got != 8 {
		t.Fatalf("moved = %d, want 8 (the budget)", got)
	}
	// Scratch holds 2 budgets of candidates; the 8 unattempted ones are
	// deferred at their current (CXL) node.
	if got := f.stat.GetNode(1, vmstat.MoverBudgetDeferred); got != 8 {
		t.Fatalf("deferred = %d, want 8", got)
	}
	moved := 0
	for pfn := 64; pfn < 128; pfn++ {
		if f.store.Page(mem.PFN(pfn)).Node == 0 {
			moved++
		}
	}
	if moved != 8 {
		t.Fatalf("%d pages ended local, want 8", moved)
	}
	if f.stat.Get(vmstat.PgmigrateSuccess) != 8 {
		t.Fatal("migrations did not go through the engine")
	}
}

func TestMoverDrainsHotRangeOverTicks(t *testing.T) {
	f := newFixture(t, 100, 100, true)
	f.allocOn(t, 0, mem.Anon, 50)
	f.allocOn(t, 1, mem.Anon, 100)

	hm := hotHeatmap(f.env, 1)
	mv := NewMover(PolicyConfig{PagesPerTick: 32}, f.env, hm)
	for i := 0; i < 4; i++ {
		mv.Tick()
	}
	// 64 hot CXL pages total: fully promoted inside two ticks, the
	// remaining ticks find nothing left to move.
	if got := f.stat.GetNode(0, vmstat.MoverPagesMoved); got != 64 {
		t.Fatalf("moved = %d, want 64", got)
	}
	for pfn := 64; pfn < 128; pfn++ {
		if f.store.Page(mem.PFN(pfn)).Node != 0 {
			t.Fatalf("PFN %d still on CXL", pfn)
		}
	}
}

func TestMoverDemotesColdOnlyUnderPressure(t *testing.T) {
	f := newFixture(t, 100, 100, true)
	f.allocOn(t, 0, mem.Anon, 40) // plenty free: no pressure

	hm := NewHeatmap(f.env.pfnSpace(), 64, 1) // everything cold
	mv := NewMover(PolicyConfig{PagesPerTick: 16}, f.env, hm)
	mv.Tick()
	if got := f.stat.Get(vmstat.MoverPagesMoved); got != 0 {
		t.Fatalf("moved %d cold pages off an unpressured node", got)
	}

	// Fill the local node to the brim: BelowDemote turns on and the
	// same cold pages become demotion candidates.
	f.allocOn(t, 0, mem.Anon, 60)
	mv.Tick()
	if got := f.stat.GetNode(1, vmstat.MoverPagesMoved); got != 16 {
		t.Fatalf("demoted = %d, want 16 (the budget)", got)
	}
	if f.topo.Node(1).Resident() != 16 {
		t.Fatal("CXL node accounting wrong after demotion")
	}
}

func TestOracleScoring(t *testing.T) {
	f := newFixture(t, 100, 100, false)
	f.allocOn(t, 0, mem.Anon, 100)
	f.allocOn(t, 1, mem.Anon, 100)

	orc := newOracle(f.env.pfnSpace(), 4)
	hm := hotHeatmap(f.env, 0) // tracker claims PFNs 0..63 hot
	// Ground truth: only PFNs 0..9 accessed twice (hot); PFN 70 once
	// (not hot).
	for pfn := 0; pfn < 10; pfn++ {
		orc.observe(mem.PFN(pfn))
		orc.observe(mem.PFN(pfn))
	}
	orc.observe(70)

	pol := PolicyConfig{}.WithDefaults()
	prec, rec, precOK, recOK := orc.evaluate(hm, pol)
	if !precOK || !recOK {
		t.Fatal("both scores should be defined")
	}
	// Tracker-hot = 64 pages, truly hot = 10, overlap = 10.
	if want := 10.0 / 64.0; math.Abs(prec-want) > 1e-12 {
		t.Fatalf("precision = %v, want %v", prec, want)
	}
	if rec != 1 {
		t.Fatalf("recall = %v, want 1", rec)
	}
	// evaluate resets the window: a second call has no truth.
	_, _, _, recOK = orc.evaluate(hm, pol)
	if recOK {
		t.Fatal("window not reset")
	}
}

func TestPlanePipelineEndToEnd(t *testing.T) {
	f := newFixture(t, 100, 100, true)
	f.allocOn(t, 0, mem.Anon, 50)
	f.allocOn(t, 1, mem.Anon, 100)

	pol := &PolicyConfig{PagesPerTick: 32}
	p, err := NewPlane(Config{Kind: "idlepage", ScanEveryTicks: 4, HalflifeTicks: 4, Oracle: true}, pol, f.env)
	if err != nil {
		t.Fatal(err)
	}
	for tick := uint64(1); tick <= 40; tick++ {
		// Hammer the CXL-resident range 1 (PFNs 64..127) every tick.
		for pfn := 64; pfn < 128; pfn++ {
			p.OnAccess(mem.PFN(pfn), f.store.Page(mem.PFN(pfn)))
			p.OnAccess(mem.PFN(pfn), f.store.Page(mem.PFN(pfn)))
		}
		p.Tick(tick)
	}
	p.Stop()

	rs := p.Finish(40)
	if rs.Kind != "idlepage" || rs.Scans != 10 {
		t.Fatalf("kind=%q scans=%d", rs.Kind, rs.Scans)
	}
	if rs.PagesScanned == 0 || rs.ScannedPerTick == 0 {
		t.Fatal("no scan overhead recorded")
	}
	if rs.MoverMoved == 0 {
		t.Fatal("the hot range never promoted")
	}
	if rs.OracleEvals == 0 || rs.Recall != 1 {
		t.Fatalf("oracle evals=%d recall=%v, want full recall on a perfectly tracked set", rs.OracleEvals, rs.Recall)
	}
	if rs.Precision <= 0 || rs.Precision > 1 {
		t.Fatalf("precision = %v out of range", rs.Precision)
	}
	if len(rs.Heat) != 4 || rs.HotRanges == 0 {
		t.Fatalf("heat panel wrong: len=%d hot=%d", len(rs.Heat), rs.HotRanges)
	}
	if _, err := ParseSpec(rs.Spec); err != nil {
		t.Fatalf("Finish spec %q does not parse: %v", rs.Spec, err)
	}
}

func TestPlaneRejectsBadConfig(t *testing.T) {
	f := newFixture(t, 100, 100, false)
	if _, err := NewPlane(Config{}, nil, f.env); err == nil {
		t.Fatal("off config accepted")
	}
	if _, err := NewPlane(Config{Kind: "nosuch"}, nil, f.env); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestPlanesIndependentUnderRace drives independent planes from
// concurrent goroutines — nothing is shared, so the race detector
// (the CI -race run) proves plane state never leaks across machines.
func TestPlanesIndependentUnderRace(t *testing.T) {
	kinds := []string{"idlepage", "softdirty", "damon", "idlepage"}
	var wg sync.WaitGroup
	for i, kind := range kinds {
		wg.Add(1)
		go func(i int, kind string) {
			defer wg.Done()
			f := newFixture(t, 100, 100, false)
			f.allocOn(t, 0, mem.Anon, 100)
			f.allocOn(t, 1, mem.Anon, 100)
			p, err := NewPlane(Config{Kind: kind, ScanEveryTicks: 4, Seed: uint64(i + 1)}, nil, f.env)
			if err != nil {
				t.Error(err)
				return
			}
			for tick := uint64(1); tick <= 24; tick++ {
				for pfn := 0; pfn < 50; pfn++ {
					p.OnAccess(mem.PFN(pfn), f.store.Page(mem.PFN(pfn)))
				}
				p.Tick(tick)
			}
			p.Stop()
		}(i, kind)
	}
	wg.Wait()
}
