package workload

import (
	"sort"
	"strings"
	"testing"

	"tppsim/internal/mem"
	"tppsim/internal/pagetable"
	"tppsim/internal/xrand"
)

// fakeCtx implements Ctx with a plain address space and touch counting.
type fakeCtx struct {
	as      *pagetable.AddressSpace
	rng     *xrand.RNG
	touched map[pagetable.VPN]int
	mmaps   int
	munmaps int
}

func newFakeCtx() *fakeCtx {
	return &fakeCtx{
		as:      pagetable.New(1),
		rng:     xrand.New(42),
		touched: make(map[pagetable.VPN]int),
	}
}

func (c *fakeCtx) Mmap(pages uint64, t mem.PageType) pagetable.Region {
	c.mmaps++
	return c.as.Mmap(pages, t)
}

func (c *fakeCtx) Munmap(r pagetable.Region) {
	c.munmaps++
	c.as.Munmap(r)
}

func (c *fakeCtx) Touch(v pagetable.VPN) { c.touched[v]++ }

func (c *fakeCtx) RNG() *xrand.RNG { return c.rng }

func TestCatalogComplete(t *testing.T) {
	want := []string{"Ads1", "Ads2", "Ads3", "Cache1", "Cache2", "Warehouse", "Web1", "Web2"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestProfilesConstructAndStart(t *testing.T) {
	for name, ctor := range Catalog {
		w := ctor(DefaultTotalPages)
		if w.Name() != name {
			t.Errorf("%s: Name() = %q", name, w.Name())
		}
		total := w.TotalPages()
		if total == 0 || total > DefaultTotalPages {
			t.Errorf("%s: TotalPages = %d", name, total)
		}
		if w.Model().CPUServiceNs <= 0 || w.Model().StallsPerOp <= 0 {
			t.Errorf("%s: model not calibrated", name)
		}
		ctx := newFakeCtx()
		w.Start(ctx)
		if ctx.mmaps == 0 {
			t.Errorf("%s: Start mapped nothing", name)
		}
	}
}

func TestNextAccessInsideRegions(t *testing.T) {
	w := Cache1(8192)
	ctx := newFakeCtx()
	w.Start(ctx)
	for i := 0; i < 10000; i++ {
		v, ok := w.NextAccess(ctx, 0)
		if !ok {
			continue
		}
		if _, found := ctx.as.RegionOf(v); !found {
			t.Fatalf("access outside any region: %d", v)
		}
	}
}

func TestWarmupFloodsFileRegion(t *testing.T) {
	w := Web1(8192)
	ctx := newFakeCtx()
	w.Start(ctx)
	for tick := uint64(0); tick < w.WarmupTicks(); tick++ {
		w.Tick(ctx, tick)
	}
	// The bytecode region (38% of total) must be fully prefaulted.
	var fileTouched int
	for v := range ctx.touched {
		if r, ok := ctx.as.RegionOf(v); ok && r.Type == mem.File {
			fileTouched++
		}
	}
	wantMin := int(8192 * 30 / 100)
	if fileTouched < wantMin {
		t.Fatalf("file pages touched during warmup = %d, want >= %d", fileTouched, wantMin)
	}
}

func TestGrowthExpandsAnonFootprint(t *testing.T) {
	w := Web1(8192)
	ctx := newFakeCtx()
	w.Start(ctx)
	countAnonSpan := func() int {
		seen := map[pagetable.VPN]bool{}
		for i := 0; i < 20000; i++ {
			v, ok := w.NextAccess(ctx, 400*TicksPerMinute)
			if !ok {
				continue
			}
			if r, k := ctx.as.RegionOf(v); k && r.Type == mem.Anon {
				seen[v] = true
			}
		}
		return len(seen)
	}
	// Before growth: tick < warmup, growth prefix is zero, so anon-heap
	// contributes nothing (only churn anons).
	for tick := uint64(0); tick < w.WarmupTicks(); tick++ {
		w.Tick(ctx, tick)
	}
	early := countAnonSpan()
	// Run 100 minutes of growth.
	for tick := w.WarmupTicks(); tick < 100*TicksPerMinute; tick++ {
		w.Tick(ctx, tick)
	}
	late := countAnonSpan()
	if late <= early {
		t.Fatalf("anon footprint did not grow: early=%d late=%d", early, late)
	}
}

func TestChurnRecyclesSegments(t *testing.T) {
	w := Web1(8192)
	ctx := newFakeCtx()
	w.Start(ctx)
	baseMmaps := ctx.mmaps
	for tick := uint64(0); tick < 200; tick++ {
		w.Tick(ctx, tick)
	}
	if ctx.munmaps == 0 {
		t.Fatal("churn never recycled a segment")
	}
	if ctx.mmaps <= baseMmaps {
		t.Fatal("churn never allocated a fresh segment")
	}
	// Fresh segments are touched immediately (allocation bursts).
	if len(ctx.touched) == 0 {
		t.Fatal("churn did not touch fresh pages")
	}
}

func TestZipfSkewConcentratesAccesses(t *testing.T) {
	// Build a single-region profile with strong skew and verify the top
	// 10% of pages absorb most accesses.
	p := &Profile{
		PName: "skewtest",
		TM:    Cache1(1).TM,
		Specs: []RegionSpec{{
			Name: "r", Type: mem.Anon, Pages: 1000, Weight: 1, ZipfS: 1.2,
		}},
	}
	ctx := newFakeCtx()
	p.Start(ctx)
	counts := map[pagetable.VPN]int{}
	const draws = 50000
	for i := 0; i < draws; i++ {
		v, ok := p.NextAccess(ctx, 0)
		if !ok {
			t.Fatal("no access")
		}
		counts[v]++
	}
	// Concentration: the hottest 10% of pages must absorb most accesses.
	freqs := make([]int, 0, len(counts))
	for _, n := range counts {
		freqs = append(freqs, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	top := 0
	for i := 0; i < len(freqs) && i < 100; i++ {
		top += freqs[i]
	}
	if float64(top)/draws < 0.5 {
		t.Fatalf("top-100 pages absorbed only %.1f%% of accesses", 100*float64(top)/draws)
	}
}

func TestUniformRegionCoversEverything(t *testing.T) {
	p := &Profile{
		PName: "uniform",
		TM:    Cache1(1).TM,
		Specs: []RegionSpec{{
			Name: "r", Type: mem.Anon, Pages: 64, Weight: 1,
		}},
	}
	ctx := newFakeCtx()
	p.Start(ctx)
	seen := map[pagetable.VPN]bool{}
	for i := 0; i < 10000; i++ {
		v, ok := p.NextAccess(ctx, 0)
		if ok {
			seen[v] = true
		}
	}
	if len(seen) != 64 {
		t.Fatalf("uniform region covered %d/64 pages", len(seen))
	}
}

func TestChurnRecencyBias(t *testing.T) {
	p := &Profile{
		PName: "churn",
		TM:    Cache1(1).TM,
		Specs: []RegionSpec{{
			Name: "r", Type: mem.Anon, Pages: 640, Weight: 1,
			ChurnSegments: 8, ChurnTicks: 1000, RecencyBias: 0.7,
		}},
	}
	ctx := newFakeCtx()
	p.Start(ctx)
	regions := ctx.as.Regions()
	newest := regions[len(regions)-1]
	oldest := regions[0]
	var newHits, oldHits int
	for i := 0; i < 20000; i++ {
		v, ok := p.NextAccess(ctx, 0)
		if !ok {
			continue
		}
		if newest.Contains(v) {
			newHits++
		}
		if oldest.Contains(v) {
			oldHits++
		}
	}
	if newHits <= oldHits*2 {
		t.Fatalf("recency bias too weak: new=%d old=%d", newHits, oldHits)
	}
}

func TestDeterministicAccessStream(t *testing.T) {
	mk := func() []pagetable.VPN {
		w := Cache2(4096)
		ctx := newFakeCtx()
		w.Start(ctx)
		var out []pagetable.VPN
		for i := 0; i < 1000; i++ {
			if v, ok := w.NextAccess(ctx, 0); ok {
				out = append(out, v)
			}
		}
		return out
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatal("stream lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

// TestScatterMatchesModulo pins the register-computed permutation to its
// definition, (idx*scatterPrime) % Pages, bit for bit: at every size up
// to 1024 pages, at the catalog's and the benchmarks' region sizes,
// around the prime and a multiple of it (where the Barrett remainder
// needs its correction step), around 2^32, and at sizes where the
// product wraps past 2^64.
func TestScatterMatchesModulo(t *testing.T) {
	rng := xrand.New(7)
	sizes := []uint64{
		8192, 398458, 1 << 22, 1<<22 + 1, 48 << 20,
		scatterPrime - 1, scatterPrime, scatterPrime + 1, 3 * scatterPrime,
		1<<32 - 5, 1<<32 + 15, 1<<40 + 7, 1<<63 + 5, 1<<64 - 1,
	}
	for pages := uint64(1); pages <= 1<<10; pages++ {
		sizes = append(sizes, pages)
	}
	for _, pages := range sizes {
		rs := regionState{region: pagetable.Region{Pages: pages}}
		rs.initScatter()
		check := func(idx uint64) uint64 {
			got := rs.scatter(idx)
			if want := (idx * scatterPrime) % pages; got != want {
				t.Fatalf("pages=%d: scatter(%d) = %d, want %d", pages, idx, got, want)
			}
			return got
		}
		check(0)
		check(1 % pages)
		check(pages - 1)
		for i := 0; i < 10_000; i++ {
			check(rng.Uint64n(pages))
		}
		if pages > 1<<16 {
			continue
		}
		// Small regions: every rank, and every page hit exactly once.
		seen := make([]bool, pages)
		for idx := uint64(0); idx < pages; idx++ {
			off := check(idx)
			if seen[off] {
				t.Fatalf("pages=%d: offset %d drawn twice", pages, off)
			}
			seen[off] = true
		}
	}
}

// TestValidateRejectsEmptyStaticRegions checks that Validate names a
// static region that a small working set rounded down to zero pages, and
// accepts every catalog profile at the default size and a zero-page
// churn region.
func TestValidateRejectsEmptyStaticRegions(t *testing.T) {
	for _, tc := range []struct {
		w      *Profile
		region string
	}{{Web1(50), "file-cold"}, {Cache1(5), "anon-query"}} {
		err := tc.w.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.region) {
			t.Errorf("%s: Validate() = %v, want an error naming %q", tc.w.Name(), err, tc.region)
		}
	}
	for name, ctor := range Catalog {
		if p, ok := ctor(DefaultTotalPages).(*Profile); ok {
			if err := p.Validate(); err != nil {
				t.Errorf("%s at the default size: %v", name, err)
			}
		}
	}
	churnOnly := &Profile{PName: "churn", Specs: []RegionSpec{{
		Name: "r", Type: mem.Anon, Pages: 0, Weight: 1, ChurnSegments: 4, ChurnTicks: 1,
	}}}
	if err := churnOnly.Validate(); err != nil {
		t.Errorf("zero-page churn region rejected: %v", err)
	}
}

// TestNextAccessBatchMatchesNextAccess holds the batched draw to the
// scalar one it fuses: recorded runs draw through NextAccess and plain
// runs through NextAccessBatch, so the two must produce the same stream.
// Two copies of every catalog Profile, at two sizes, step through the
// same ticks (warm-up, growth, churn); at each drawing tick one copy
// draws a batch of 997 and the other 997 scalar draws, stopping at the
// first miss, and the VPNs and the stop points must match.
func TestNextAccessBatchMatchesNextAccess(t *testing.T) {
	const batch = 997
	every := uint64(1)
	if testing.Short() {
		every = 7
	}
	for _, name := range Names() {
		for _, pages := range []uint64{4 << 10, 32 << 10} {
			bw, ok := Catalog[name](pages).(*Profile)
			if !ok {
				continue
			}
			sw := Catalog[name](pages).(*Profile)
			bctx := &drawCtx{as: pagetable.New(1), rng: xrand.New(1)}
			sctx := &drawCtx{as: pagetable.New(1), rng: xrand.New(1)}
			bw.Start(bctx)
			sw.Start(sctx)
			buf := make([]pagetable.VPN, batch)
			for tick := uint64(0); tick < bw.WarmupTicks()+120; tick++ {
				bw.Tick(bctx, tick)
				sw.Tick(sctx, tick)
				if tick%every != 0 {
					continue
				}
				n := bw.NextAccessBatch(bctx, tick, buf)
				for i := 0; i < batch; i++ {
					v, ok := sw.NextAccess(sctx, tick)
					if !ok {
						if i != n {
							t.Fatalf("%s/%d tick %d: scalar draws stop at %d, the batch at %d", name, pages, tick, i, n)
						}
						break
					}
					if i >= n {
						t.Fatalf("%s/%d tick %d: the batch stops at %d, scalar draw %d succeeds", name, pages, tick, n, i)
					}
					if v != buf[i] {
						t.Fatalf("%s/%d tick %d draw %d: batch VPN %d, scalar %d", name, pages, tick, i, buf[i], v)
					}
				}
			}
		}
	}
}
