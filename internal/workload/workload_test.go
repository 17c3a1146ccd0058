package workload

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"tppsim/internal/mem"
	"tppsim/internal/pagetable"
	"tppsim/internal/xrand"
)

// fakeCtx implements Ctx with a plain address space and touch counting.
// It logs every touched VPN and every mapped region in order, and runs a
// range as per-page touches.
type fakeCtx struct {
	as      *pagetable.AddressSpace
	rng     *xrand.RNG
	touched map[pagetable.VPN]int
	order   []pagetable.VPN
	mapped  []pagetable.Region
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
	r := c.as.Mmap(pages, t)
	c.mapped = append(c.mapped, r)
	return r
}

func (c *fakeCtx) Munmap(r pagetable.Region) {
	c.munmaps++
	c.as.Munmap(r, nil)
}

func (c *fakeCtx) Touch(v pagetable.VPN) {
	c.touched[v]++
	c.order = append(c.order, v)
}

func (c *fakeCtx) TouchRange(start pagetable.VPN, n uint64) {
	for i := uint64(0); i < n; i++ {
		c.Touch(start + pagetable.VPN(i))
	}
}

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

// drawN draws up to n accesses at tick through NextAccessBatch. A batch
// ends at its first miss (four region picks with nothing accessible), so
// drawN draws again after one, making at most n calls.
func drawN(p *Profile, ctx Ctx, tick uint64, n int) []pagetable.VPN {
	buf := make([]pagetable.VPN, n)
	got := 0
	for calls := 0; got < n && calls < n; calls++ {
		got += p.NextAccessBatch(ctx, tick, buf[got:])
	}
	return buf[:got]
}

// TestNextAccessInsideRegions steps Cache1 through its warm-up and a
// minute of churn, drawing after every tick, and checks that no access
// falls outside a mapped region (a recycled churn segment included).
func TestNextAccessInsideRegions(t *testing.T) {
	w := Cache1(8192)
	ctx := newFakeCtx()
	w.Start(ctx)
	drawn := 0
	for tick := uint64(0); tick < w.WarmupTicks()+TicksPerMinute; tick++ {
		w.Tick(ctx, tick)
		for _, v := range drawN(w, ctx, tick, 100) {
			if _, found := ctx.as.RegionOf(v); !found {
				t.Fatalf("tick %d: access outside any region: %d", tick, v)
			}
			drawn++
		}
	}
	if drawn == 0 {
		t.Fatal("no access drawn")
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
		for _, v := range drawN(w, ctx, 400*TicksPerMinute, 20000) {
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

// TestTickTouchOrder pins which pages Tick touches and in what order:
// each warm-up tick, every flooded region's next PrefaultPerTick pages,
// ascending, region by region; each later tick, every fresh churn
// segment's pages, ascending, segment by segment in mmap order.
func TestTickTouchOrder(t *testing.T) {
	for _, name := range []string{"Web1", "Cache1"} {
		t.Run(name, func(t *testing.T) {
			p := Catalog[name](8192).(*Profile)
			ctx := newFakeCtx()
			p.Start(ctx)
			var flooded, churned int
			for tick := uint64(0); tick < p.Warmup+2*TicksPerMinute; tick++ {
				ctx.order, ctx.mapped = ctx.order[:0], ctx.mapped[:0]
				p.Tick(ctx, tick)
				var want []pagetable.VPN
				if tick < p.Warmup {
					for ri, spec := range p.Specs {
						from := min(tick*spec.PrefaultPerTick, spec.Pages)
						to := min(from+spec.PrefaultPerTick, spec.Pages)
						for v := from; v < to; v++ {
							want = append(want, p.regions[ri].region.Start+pagetable.VPN(v))
						}
					}
					flooded += len(want)
				} else {
					for _, r := range ctx.mapped {
						for v := r.Start; v < r.End(); v++ {
							want = append(want, v)
						}
					}
					churned += len(want)
				}
				if !slices.Equal(ctx.order, want) {
					t.Fatalf("tick %d touched %d pages, want %d in order", tick, len(ctx.order), len(want))
				}
			}
			if flooded == 0 || churned == 0 {
				t.Fatalf("flooded %d pages and churned %d; both paths must run", flooded, churned)
			}
		})
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
	buf := make([]pagetable.VPN, draws)
	if n := p.NextAccessBatch(ctx, 0, buf); n != draws {
		t.Fatalf("drew %d of %d accesses", n, draws)
	}
	for _, v := range buf {
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
	for _, v := range drawN(p, ctx, 0, 10000) {
		seen[v] = true
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
	for _, v := range drawN(p, ctx, 0, 20000) {
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

// TestDeterministicAccessStream steps two copies of Cache2 through its
// warm-up and into steady state, drawing after every tick, and checks
// that the two streams are identical.
func TestDeterministicAccessStream(t *testing.T) {
	mk := func() []pagetable.VPN {
		w := Cache2(4096)
		ctx := newFakeCtx()
		w.Start(ctx)
		var out []pagetable.VPN
		for tick := uint64(0); tick < w.WarmupTicks()+TicksPerMinute; tick++ {
			w.Tick(ctx, tick)
			out = append(out, drawN(w, ctx, tick, 50)...)
		}
		return out
	}
	a, b := mk(), mk()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("stream lengths %d and %d", len(a), len(b))
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

// TestValidateRejectsEmptyStaticRegions checks that Validate names the
// region of a profile that cannot start or draw: a static region that a
// small working set rounded down to zero pages (a negative ChurnSegments
// makes a static region), a zero-page churn region with a ZipfS skew, a
// NaN, infinite or negative Weight or WarmupWeight, and a profile with no
// positive Weight. It accepts every catalog profile at the default size
// and a zero-page churn region.
func TestValidateRejectsEmptyStaticRegions(t *testing.T) {
	custom := func(specs ...RegionSpec) *Profile {
		return &Profile{PName: "custom", TM: Cache1(1).TM, Specs: specs}
	}
	hot := RegionSpec{Name: "hot", Type: mem.Anon, Pages: 64, Weight: 1}
	weighted := func(w, warm float64) *Profile {
		return custom(hot, RegionSpec{Name: "bad-weight", Type: mem.Anon, Pages: 64, Weight: w, WarmupWeight: warm})
	}
	type row struct {
		w      *Profile
		region string
	}
	rows := []row{
		{Web1(50), "file-cold"},
		{Cache1(5), "anon-query"},
		{custom(RegionSpec{Name: "warm-only", Type: mem.Anon, Pages: 64, WarmupWeight: 1}), "warm-only"},
		{custom(hot, RegionSpec{
			Name: "skewed-churn", Type: mem.Anon, Weight: 1, ZipfS: 0.8, ChurnSegments: 4, ChurnTicks: 1,
		}), "skewed-churn"},
		{custom(hot, RegionSpec{Name: "negative-churn", Type: mem.Anon, Weight: 1, ChurnSegments: -1}), "negative-churn"},
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		rows = append(rows, row{weighted(bad, 0), "bad-weight"}, row{weighted(1, bad), "bad-weight"})
	}
	for _, tc := range rows {
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
