package tracker

import (
	"fmt"
	"math"
	"testing"

	"tppsim/internal/mem"
	"tppsim/internal/tier"
	"tppsim/internal/vmstat"
	"tppsim/internal/xrand"
)

// scanPerGranule is the bit trackers' scan one granule at a time, the
// reference bitTracker.Tick's word-at-a-time scan must match bit for
// bit. For every granule below Store.Len it charges one check to the
// node holding the granule's first PFN (freed pages, NilNode, are not
// charged), then tests and clears the granule's bit and, if it was
// set, folds the granule's page count into its range: gain*pages, the
// last granule short when the span ends inside it.
func scanPerGranule(store *mem.Store, b *AccessBits, hm *Heatmap, perNode []uint64) {
	gran := b.Granule()
	total := store.Len()
	for gi := 0; gi*gran < total; gi++ {
		first := gi * gran
		if node := store.Page(mem.PFN(first)).Node; node != mem.NilNode {
			perNode[node]++
		}
		if !testClearGranule(b, gi) {
			continue
		}
		pages := gran
		if first+pages > total {
			pages = total - first
		}
		hm.Add(hm.RangeOf(mem.PFN(first)), float64(pages))
	}
}

// testClearGranule reads and clears granule gi, returning its state.
func testClearGranule(b *AccessBits, gi int) bool {
	mask := uint64(1) << (uint(gi) & 63)
	set := b.words[gi>>6]&mask != 0
	b.words[gi>>6] &^= mask
	return set
}

// scanFixture is a three-node machine's page store and stats, with a
// bit tracker under test and a reference bitmap and heatmap that the
// per-granule scan harvests. Both bitmaps see the same accesses.
type scanFixture struct {
	store   *mem.Store
	stat    *vmstat.NodeStats
	trk     *bitTracker
	hm      *Heatmap
	ref     *bitTracker // sets refHM's bits; its Tick never runs
	refHM   *Heatmap
	perNode []uint64 // the reference's checks per node, summed over scans
}

func newScanFixture(t testing.TB, kind string, gran, rangePages int, nodePages uint64) *scanFixture {
	t.Helper()
	topo, err := tier.Spec{Nodes: []tier.NodeSpec{
		{Kind: mem.KindLocal, Pages: nodePages},
		{Kind: mem.KindCXL, Pages: nodePages},
		{Kind: mem.KindCXL, Pages: nodePages},
	}}.Build(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	store := mem.NewStore(int(topo.TotalCapacity()))
	f := &scanFixture{
		store:   store,
		stat:    vmstat.NewNodeStats(topo.NumNodes()),
		perNode: make([]uint64, topo.NumNodes()),
	}
	cfg := Config{Kind: kind, ScanEveryTicks: 16, GranularityPages: gran, RangePages: rangePages}
	trk, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.trk = trk.(*bitTracker)
	f.ref = trk.(*bitTracker).clone()
	env := Env{Store: store, Topo: topo, Stat: f.stat}
	if err := f.trk.Start(env); err != nil {
		t.Fatal(err)
	}
	env.Stat = vmstat.NewNodeStats(topo.NumNodes()) // the reference charges perNode
	if err := f.ref.Start(env); err != nil {
		t.Fatal(err)
	}
	f.hm = NewHeatmap(env.pfnSpace(), rangePages, 64)
	f.refHM = NewHeatmap(env.pfnSpace(), rangePages, 64)
	return f
}

// clone returns an unstarted tracker of t's kind and config.
func (t *bitTracker) clone() *bitTracker { return newBitTracker(t.name, t.cfg, t.dirtyOnly) }

// access shows one access to pfn to both sides.
func (f *scanFixture) access(pfn mem.PFN) {
	pg := f.store.Page(pfn)
	f.trk.OnAccess(pfn, pg)
	f.ref.OnAccess(pfn, pg)
}

// scan runs both scans at tick and fails unless every range's heat,
// every node's tracker_pages_scanned and every bitmap word match.
func (f *scanFixture) scan(t *testing.T, tick uint64) {
	t.Helper()
	if !f.trk.Tick(tick, f.hm) {
		t.Fatalf("tick %d: no scan", tick)
	}
	f.refHM.BeginWindow(float64(f.ref.cfg.ScanEveryTicks))
	scanPerGranule(f.store, f.ref.bits, f.refHM, f.perNode)
	for r := range f.hm.heat {
		if got, want := f.hm.heat[r], f.refHM.heat[r]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("tick %d: range %d heat %v (%#x), per-granule scan %v (%#x)",
				tick, r, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for n, want := range f.perNode {
		if got := f.stat.GetNode(mem.NodeID(n), vmstat.TrackerPagesScanned); got != want {
			t.Fatalf("tick %d: node %d tracker_pages_scanned %d, per-granule scan %d", tick, n, got, want)
		}
	}
	for i, w := range f.trk.bits.words {
		if want := f.ref.bits.words[i]; w != want {
			t.Fatalf("tick %d: bitmap word %d is %#x after the scan, per-granule scan %#x", tick, i, w, want)
		}
	}
}

// TestBitScanMatchesPerGranule holds the word-at-a-time scan to
// scanPerGranule bit for bit: heat by math.Float64bits, charges and
// the bitmap left behind exactly. It covers granules 1, 2, 8 and 64,
// each range size from the granule to 256, idlepage and softdirty
// (whose bits only dirty pages set). The PFN span ends inside a word
// and, at granules above 1, inside a granule, and the last granule is
// touched every round; freed pages (NilNode) sit inside the span, at
// granule-aligned PFNs too; pages move between nodes between scans;
// the span grows; and a bit past the span's end stays set until the
// span covers it.
func TestBitScanMatchesPerGranule(t *testing.T) {
	for _, kind := range []string{"idlepage", "softdirty"} {
		for _, gran := range []int{1, 2, 8, 64} {
			for rangePages := gran; rangePages <= 256; rangePages *= 2 {
				t.Run(fmt.Sprintf("%s/gran%d/range%d", kind, gran, rangePages), func(t *testing.T) {
					checkScanMatches(t, kind, gran, rangePages)
				})
			}
		}
	}
}

func checkScanMatches(t *testing.T, kind string, gran, rangePages int) {
	f := newScanFixture(t, kind, gran, rangePages, 6000)
	rng := xrand.New(uint64(gran*1000 + rangePages))
	// 8,805 PFNs: the span ends inside a word at every granule tested
	// (8805 = 137*64 + 37) and inside a granule above 1.
	const span = 8805
	for i := 0; i < span; i++ {
		pfn := f.store.Alloc(mem.Anon, mem.NodeID(rng.Intn(3)))
		if rng.Bool(0.6) {
			pg := f.store.Page(pfn)
			pg.Flags = pg.Flags.Set(mem.PGDirty)
		}
	}
	// A freed page at a PFN every granule starts on, then ~10% more.
	f.store.Free(mem.PFN(3 * 64))
	for i := 0; i < span/10; i++ {
		if pfn := mem.PFN(rng.Intn(span)); f.store.Page(pfn).Node != mem.NilNode {
			f.store.Free(pfn)
		}
	}
	tick := uint64(0)
	for round := 0; round < 6; round++ {
		total := f.store.Len()
		// Dense runs fill whole words; scattered accesses leave most
		// words empty or sparse.
		for k := 0; k < 4; k++ {
			start := rng.Intn(total)
			for pfn := start; pfn < start+rng.Intn(300) && pfn < total; pfn++ {
				f.access(mem.PFN(pfn))
			}
		}
		for k := 0; k < 500; k++ {
			f.access(mem.PFN(rng.Intn(total)))
		}
		f.access(mem.PFN(total - 1))
		// A bit past the span's end: no scan may see or clear it until
		// the span grows over it.
		f.trk.bits.Set(mem.PFN(total + gran))
		f.ref.bits.Set(mem.PFN(total + gran))
		// Migration between scans.
		for k := 0; k < 200; k++ {
			if pfn := mem.PFN(rng.Intn(total)); f.store.Page(pfn).Node != mem.NilNode {
				f.store.Move(pfn, mem.NodeID(rng.Intn(3)))
			}
		}
		tick += 16
		f.scan(t, tick)
		// Grow the span (recycled PFNs first, then new ones past the end).
		for k := 0; k < 600; k++ {
			f.store.Alloc(mem.File, mem.NodeID(rng.Intn(3)))
		}
	}
}

// BenchmarkTrackerScan times one idlepage scan of tiered-pressure's
// machine: 64K live pages over three nodes, 64-page heat ranges, after
// 16 ticks of 4,096 skewed accesses (most to a tenth of the pages). The
// bitmap is restored before each scan. "word" is the tracker's scan;
// "per-granule" is the reference loop it replaced.
func BenchmarkTrackerScan(b *testing.B) {
	const pages, accesses = 64 << 10, 16 * 4096
	for _, gran := range []int{1, 8} {
		f := newScanFixture(b, "idlepage", gran, 64, pages/3+1)
		rng := xrand.New(1)
		for i := 0; i < pages; i++ {
			f.store.Alloc(mem.Anon, mem.NodeID(i%3))
		}
		for i := 0; i < accesses; i++ {
			pfn := rng.Intn(pages)
			if rng.Bool(0.8) {
				pfn %= pages / 10
			}
			f.trk.bits.Set(mem.PFN(pfn))
		}
		saved := append([]uint64(nil), f.trk.bits.words...)
		b.Run(fmt.Sprintf("gran%d/word", gran), func(b *testing.B) {
			tick := uint64(0)
			for i := 0; i < b.N; i++ {
				copy(f.trk.bits.words, saved)
				tick += 16
				f.trk.Tick(tick, f.hm)
			}
		})
		b.Run(fmt.Sprintf("gran%d/per-granule", gran), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(f.ref.bits.words, saved)
				f.refHM.BeginWindow(16)
				scanPerGranule(f.store, f.ref.bits, f.refHM, f.perNode)
			}
		})
	}
}
