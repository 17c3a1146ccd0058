package pagetable

import (
	"math/rand"
	"sort"
	"testing"

	"tppsim/internal/mem"
)

// lockstepPair drives a dense table and a per-page (frameShift 0)
// extent table through the same operation stream and cross-checks every
// observable after each step. The extent table is a pure representation
// change, so any divergence — translation, eviction state, counters,
// Munmap return sets — is a bug in the extent code.
type lockstepPair struct {
	t     *testing.T
	dense *AddressSpace
	ext   *AddressSpace
	// nextPFN allocates identical fake PFNs to both tables; freed PFNs
	// are recycled LIFO like mem.Store so rmap growth stays bounded.
	nextPFN mem.PFN
	free    []mem.PFN
	regions []Region // live regions (identical in both tables)
}

func newLockstepPair(t *testing.T) *lockstepPair {
	return &lockstepPair{t: t, dense: New(1), ext: NewExtent(1, 0)}
}

func (p *lockstepPair) allocPFN() mem.PFN {
	if n := len(p.free); n > 0 {
		pfn := p.free[n-1]
		p.free = p.free[:n-1]
		return pfn
	}
	pfn := p.nextPFN
	p.nextPFN++
	return pfn
}

func (p *lockstepPair) mmap(pages uint64, ty mem.PageType) {
	rd := p.dense.Mmap(pages, ty)
	re := p.ext.Mmap(pages, ty)
	if rd != re {
		p.t.Fatalf("Mmap diverged: dense %+v ext %+v", rd, re)
	}
	p.regions = append(p.regions, rd)
}

func (p *lockstepPair) munmap(i int) {
	r := p.regions[i]
	p.regions = append(p.regions[:i], p.regions[i+1:]...)
	pd := append([]mem.PFN(nil), p.dense.Munmap(r)...)
	pe := append([]mem.PFN(nil), p.ext.Munmap(r)...)
	// Order is representation-defined; the PFN sets must match.
	sort.Slice(pd, func(a, b int) bool { return pd[a] < pd[b] })
	sort.Slice(pe, func(a, b int) bool { return pe[a] < pe[b] })
	if len(pd) != len(pe) {
		p.t.Fatalf("Munmap returned %d PFNs dense, %d ext", len(pd), len(pe))
	}
	for j := range pd {
		if pd[j] != pe[j] {
			p.t.Fatalf("Munmap PFN sets diverge at %d: dense %d ext %d", j, pd[j], pe[j])
		}
		p.free = append(p.free, pd[j])
	}
}

func (p *lockstepPair) mapPage(v VPN) {
	pfn := p.allocPFN()
	p.dense.MapPage(v, pfn)
	p.ext.MapPage(v, pfn)
}

func (p *lockstepPair) unmapPage(v VPN) {
	pd, okd := p.dense.UnmapPage(v)
	pe, oke := p.ext.UnmapPage(v)
	if pd != pe || okd != oke {
		p.t.Fatalf("UnmapPage(%d) diverged: dense %d,%v ext %d,%v", v, pd, okd, pe, oke)
	}
	if okd {
		p.free = append(p.free, pd)
	}
}

func (p *lockstepPair) unmapPFN(pfn mem.PFN, kind EvictKind) {
	vd, okd := p.dense.UnmapPFN(pfn, kind)
	ve, oke := p.ext.UnmapPFN(pfn, kind)
	if vd != ve || okd != oke {
		p.t.Fatalf("UnmapPFN(%d,%d) diverged: dense %d,%v ext %d,%v", pfn, kind, vd, okd, ve, oke)
	}
	if okd {
		p.free = append(p.free, pfn)
	}
}

// check cross-checks every observable over the full VPN span.
func (p *lockstepPair) check() {
	d, e := p.dense, p.ext
	if d.Mapped() != e.Mapped() {
		p.t.Fatalf("Mapped: dense %d ext %d", d.Mapped(), e.Mapped())
	}
	if d.TotalPages() != e.TotalPages() {
		p.t.Fatalf("TotalPages: dense %d ext %d", d.TotalPages(), e.TotalPages())
	}
	for _, k := range []EvictKind{EvictNone, EvictSwap, EvictFile} {
		if d.EvictedCount(k) != e.EvictedCount(k) {
			p.t.Fatalf("EvictedCount(%d): dense %d ext %d", k, d.EvictedCount(k), e.EvictedCount(k))
		}
	}
	var vs []VPN
	for _, r := range p.regions {
		for v := r.Start; v < r.End(); v++ {
			vs = append(vs, v)
		}
	}
	outD := make([]mem.PFN, len(vs))
	outE := make([]mem.PFN, len(vs))
	d.TranslateBatch(vs, outD)
	e.TranslateBatch(vs, outE)
	for i, v := range vs {
		if outD[i] != outE[i] {
			p.t.Fatalf("TranslateBatch(%d): dense %d ext %d", v, outD[i], outE[i])
		}
		pd, okd := d.Translate(v)
		pe, oke := e.Translate(v)
		if pd != pe || okd != oke {
			p.t.Fatalf("Translate(%d): dense %d,%v ext %d,%v", v, pd, okd, pe, oke)
		}
		if kd, ke := d.Evicted(v), e.Evicted(v); kd != ke {
			p.t.Fatalf("Evicted(%d): dense %d ext %d", v, kd, ke)
		}
		if okd {
			vd, vokd := d.VPNOf(pd)
			ve, voke := e.VPNOf(pd)
			if vd != ve || vokd != voke || !vokd || vd != v {
				p.t.Fatalf("VPNOf(%d): dense %d,%v ext %d,%v want %d", pd, vd, vokd, ve, voke, v)
			}
		}
	}
	for i, r := range p.regions {
		p.checkRun(i, 0, 1, int(r.Pages))
	}
}

// checkRun compares TranslateRun on both tables against each other and
// against per-VPN Translate for one (region, offset, stride, length).
func (p *lockstepPair) checkRun(i int, off VPN, stride uint64, length int) {
	r := p.regions[i]
	outD := make([]mem.PFN, length)
	outE := make([]mem.PFN, length)
	nd := p.dense.TranslateRun(i, off, stride, outD)
	ne := p.ext.TranslateRun(i, off, stride, outE)
	want := 0
	if uint64(off) < r.Pages {
		want = int((r.Pages - uint64(off) + stride - 1) / stride)
	}
	if want > length {
		want = length
	}
	if nd != want || ne != want {
		p.t.Fatalf("TranslateRun(%d,%d,%d,len %d) count: dense %d ext %d want %d", i, off, stride, length, nd, ne, want)
	}
	for k := 0; k < want; k++ {
		v := r.Start + off + VPN(uint64(k)*stride)
		pfn, ok := p.dense.Translate(v)
		if !ok {
			pfn = mem.NilPFN
		}
		if outD[k] != pfn || outE[k] != pfn {
			p.t.Fatalf("TranslateRun(%d,%d,%d) at VPN %d: dense %d ext %d want %d", i, off, stride, v, outD[k], outE[k], pfn)
		}
	}
}

// translateRunOp is the read op riding after every mutation: a
// TranslateRun at a random offset (past the end included), stride and
// buffer length. It draws from rng only after the mutation has drawn
// its operands, so each step's mutation is unchanged by it.
func (p *lockstepPair) translateRunOp(rng *rand.Rand) {
	if len(p.regions) == 0 {
		return
	}
	i := rng.Intn(len(p.regions))
	off := VPN(rng.Intn(int(p.regions[i].Pages) + 2))
	p.checkRun(i, off, uint64(1+rng.Intn(4)), 1+rng.Intn(40))
}

// markOp is the scan-mark check riding after every mutation: both
// tables must hold the same marks, before and after a MarkPFN on a
// mapped, freed or never-allocated PFN and a MarkVPN anywhere in the
// address span, guard gaps included. Then, acting as the scan, it
// sometimes clears one mark word in both so later mutations have clear
// marks to set. Like translateRunOp it draws only after the mutation.
func (p *lockstepPair) markOp(rng *rand.Rand) {
	p.checkMarks()
	pfn := mem.PFN(rng.Intn(int(p.nextPFN) + 3))
	p.dense.MarkPFN(pfn)
	p.ext.MarkPFN(pfn)
	v := VPN(rng.Intn(int(p.dense.nextVPN) + 1))
	p.dense.MarkVPN(v)
	p.ext.MarkVPN(v)
	p.checkMarks()
	if len(p.regions) > 0 && rng.Intn(2) == 0 {
		i := rng.Intn(len(p.regions))
		w := rng.Intn(len(p.dense.ScanMarks(i)))
		p.dense.ScanMarks(i)[w] = 0
		p.ext.ScanMarks(i)[w] = 0
	}
}

// checkMarks compares every slot's scan mark across the two tables.
func (p *lockstepPair) checkMarks() {
	for i := range p.regions {
		md, me := p.dense.ScanMarks(i), p.ext.ScanMarks(i)
		if len(md) != len(me) {
			p.t.Fatalf("region %d: %d mark words dense, %d ext", i, len(md), len(me))
		}
		for w := range md {
			if md[w] != me[w] {
				p.t.Fatalf("region %d mark word %d: dense %#x ext %#x", i, w, md[w], me[w])
			}
		}
	}
}

// mappedPFNs collects the dense table's live translations for picking
// UnmapPFN victims.
func (p *lockstepPair) mappedPFNs() []mem.PFN {
	var pfns []mem.PFN
	p.dense.ForEachMapped(func(_ VPN, pfn mem.PFN) { pfns = append(pfns, pfn) })
	return pfns
}

// step applies one random operation, then a TranslateRun cross-check
// and a scan-mark cross-check. The op mix leans on map/unmap so runs
// form, diverge mid-run (lazy splits), and reconverge (re-merges);
// region churn and eviction-state writes ride along.
func (p *lockstepPair) step(rng *rand.Rand) {
	p.mutate(rng)
	p.translateRunOp(rng)
	p.markOp(rng)
}

func (p *lockstepPair) mutate(rng *rand.Rand) {
	switch op := rng.Intn(20); {
	case op == 0: // mmap a fresh region
		if len(p.regions) < 6 {
			p.mmap(uint64(1+rng.Intn(96)), mem.PageType(rng.Intn(mem.NumPageTypes)))
		}
	case op == 1: // munmap a whole region
		if len(p.regions) > 1 {
			p.munmap(rng.Intn(len(p.regions)))
		}
	case op < 11: // map an unmapped VPN (sequential bias grows runs)
		if len(p.regions) == 0 {
			return
		}
		r := p.regions[rng.Intn(len(p.regions))]
		v := r.Start + VPN(rng.Intn(int(r.Pages)))
		for ; v < r.End(); v++ {
			if _, ok := p.dense.Translate(v); !ok {
				p.mapPage(v)
				return
			}
		}
	case op < 15: // UnmapPFN with an eviction record (reclaim's path)
		if pfns := p.mappedPFNs(); len(pfns) > 0 {
			kind := EvictSwap
			if rng.Intn(2) == 0 {
				kind = EvictFile
			}
			p.unmapPFN(pfns[rng.Intn(len(pfns))], kind)
		}
	case op < 18: // UnmapPage at a random spot (mid-run divergence)
		if len(p.regions) == 0 {
			return
		}
		r := p.regions[rng.Intn(len(p.regions))]
		p.unmapPage(r.Start + VPN(rng.Intn(int(r.Pages))))
	default: // remap an evicted VPN (state write at run edges / mid-run)
		if len(p.regions) == 0 {
			return
		}
		r := p.regions[rng.Intn(len(p.regions))]
		for v := r.Start; v < r.End(); v++ {
			if p.dense.Evicted(v) != EvictNone {
				p.mapPage(v)
				return
			}
		}
	}
}

// TestExtentLockstepProperty drives the dense and extent tables through
// randomized op streams and asserts identical observable state after
// every operation.
func TestExtentLockstepProperty(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		p := newLockstepPair(t)
		p.mmap(64, mem.Anon)
		p.mmap(128, mem.File)
		for i := 0; i < 1500; i++ {
			p.step(rng)
			if i%25 == 0 {
				p.check()
			}
		}
		p.check()
	}
}

// TestExtentLazySplitRemerge pins the split/re-merge mechanics directly:
// a contiguous run splits when a mid-run page diverges and re-merges
// when it reconverges with consecutive PFNs.
func TestExtentLazySplitRemerge(t *testing.T) {
	as := NewExtent(1, 0)
	r := as.Mmap(16, mem.Anon)
	for i := uint64(0); i < 8; i++ {
		as.MapPage(r.Start+VPN(i), mem.PFN(100+i))
	}
	if got := as.NumExtents(); got != 1 {
		t.Fatalf("sequential maps should merge into 1 extent, got %d", got)
	}
	// Mid-run eviction: [100..103] [evicted] [105..107] = 3 extents.
	if _, ok := as.UnmapPage(r.Start + 4); !ok {
		t.Fatal("UnmapPage failed")
	}
	as.UnmapPFN(104, EvictSwap) // no-op: already unmapped
	if got := as.NumExtents(); got != 2 {
		t.Fatalf("mid-run unmap (no record) should leave 2 mapped extents, got %d", got)
	}
	if as.ExtentSplits() == 0 {
		t.Fatal("mid-run unmap should count a split")
	}
	// Remap the hole with the original PFN: the three runs reconverge.
	as.MapPage(r.Start+4, 104)
	if got := as.NumExtents(); got != 1 {
		t.Fatalf("reconverged run should re-merge to 1 extent, got %d", got)
	}
	if as.ExtentMerges() < 2 {
		t.Fatalf("re-merge should count merges, got %d", as.ExtentMerges())
	}
	// An eviction record keeps state: split with a swap extent between.
	as.UnmapPFN(102, EvictSwap)
	if as.Evicted(r.Start+2) != EvictSwap {
		t.Fatal("eviction record lost")
	}
	if got := as.NumExtents(); got != 3 {
		t.Fatalf("swap record mid-run should give 3 extents, got %d", got)
	}
	// Remap with a different PFN: hole fills but PFNs don't reconverge.
	as.MapPage(r.Start+2, 500)
	if got := as.NumExtents(); got != 3 {
		t.Fatalf("non-consecutive remap must not merge, got %d extents", got)
	}
	if pfn, ok := as.Translate(r.Start + 2); !ok || pfn != 500 {
		t.Fatalf("Translate after remap = %d,%v", pfn, ok)
	}
}

// TestExtentHugeFrames exercises 2 MB-frame mode: one PFN covers 512
// base pages, chunk unmaps take the whole frame, and partial tail
// frames translate only their populated span.
func TestExtentHugeFrames(t *testing.T) {
	const fp = mem.HugeFramePages
	as := NewExtent(1, mem.HugeFrameShift)
	r := as.Mmap(3*fp/2, mem.Anon) // 1.5 frames of VPNs
	if uint64(r.Start)%fp != 0 {
		t.Fatalf("huge-mode region start %d not frame aligned", r.Start)
	}
	// Frame 0 covers the first 512 VPNs; the tail frame covers 256.
	as.MapRange(r.Start, 7, fp)
	as.MapRange(r.Start+fp, 8, fp/2)
	if got := as.Mapped(); got != 3*fp/2 {
		t.Fatalf("Mapped = %d, want %d", got, 3*fp/2)
	}
	if got := as.NumExtents(); got != 1 {
		t.Fatalf("consecutive frame maps should merge, got %d extents", got)
	}
	for _, tc := range []struct {
		v    VPN
		pfn  mem.PFN
		want bool
	}{
		{r.Start, 7, true},
		{r.Start + fp - 1, 7, true},
		{r.Start + fp, 8, true},
		{r.Start + 3*fp/2 - 1, 8, true},
	} {
		pfn, ok := as.Translate(tc.v)
		if ok != tc.want || (ok && pfn != tc.pfn) {
			t.Fatalf("Translate(%d) = %d,%v want %d,%v", tc.v, pfn, ok, tc.pfn, tc.want)
		}
	}
	if v, ok := as.VPNOf(8); !ok || v != r.Start+fp {
		t.Fatalf("VPNOf(8) = %d,%v", v, ok)
	}
	// A frame-stride run reads one PFN per frame (the NUMA-balancing
	// scan's huge-mode walk), from an aligned or a mid-frame offset, and
	// stops at the partial tail frame.
	runs := func(off VPN, want ...mem.PFN) {
		t.Helper()
		out := make([]mem.PFN, 4)
		n := as.TranslateRun(0, off, fp, out)
		if n != len(want) {
			t.Fatalf("TranslateRun(off %d, stride %d) = %d entries, want %d", off, fp, n, len(want))
		}
		for k, w := range want {
			if out[k] != w {
				t.Fatalf("TranslateRun(off %d, stride %d)[%d] = %d, want %d", off, fp, k, out[k], w)
			}
		}
	}
	runs(0, 7, 8)
	runs(100, 7, 8)
	runs(fp+255, 8)
	runs(3 * fp / 2)
	// Unmapping frame 0 by PFN removes all 512 pages as one unit.
	if v, ok := as.UnmapPFN(7, EvictSwap); !ok || v != r.Start {
		t.Fatalf("UnmapPFN(7) = %d,%v", v, ok)
	}
	runs(0, mem.NilPFN, 8)
	if got := as.Mapped(); got != fp/2 {
		t.Fatalf("Mapped after frame unmap = %d, want %d", got, fp/2)
	}
	if got := as.EvictedCount(EvictSwap); got != fp {
		t.Fatalf("EvictedCount(swap) = %d, want %d", got, fp)
	}
	for _, v := range []VPN{r.Start, r.Start + fp - 1} {
		if as.Evicted(v) != EvictSwap {
			t.Fatalf("Evicted(%d) lost the swap record", v)
		}
	}
	// UnmapPage mid-tail-frame takes the whole (partial) frame chunk.
	if pfn, ok := as.UnmapPage(r.Start + fp + 100); !ok || pfn != 8 {
		t.Fatalf("UnmapPage tail = %d,%v", pfn, ok)
	}
	if as.Mapped() != 0 {
		t.Fatalf("Mapped = %d after unmapping both frames", as.Mapped())
	}
	// Refault frame 0 with a new PFN; translation spans the frame again.
	as.MapRange(r.Start, 9, fp)
	if pfn, ok := as.Translate(r.Start + 17); !ok || pfn != 9 {
		t.Fatalf("Translate after refault = %d,%v", pfn, ok)
	}
	if got := as.EvictedCount(EvictSwap); got != 0 {
		t.Fatalf("EvictedCount(swap) = %d after refault", got)
	}
}

// TestExtentFootprint sanity-checks the -mem-stats accounting. At
// frameShift 0 the extent table drops the dense pfns/estate arrays but
// keeps the per-page rmap; in huge-frame mode the rmap shrinks 512x
// too, and the whole table collapses to well under a byte per page.
func TestExtentFootprint(t *testing.T) {
	const pages = 1 << 16
	dense, ext := New(1), NewExtent(1, 0)
	huge := NewExtent(1, mem.HugeFrameShift)
	rd, re := dense.Mmap(pages, mem.Anon), ext.Mmap(pages, mem.Anon)
	rh := huge.Mmap(pages, mem.Anon)
	for i := uint64(0); i < pages; i++ {
		dense.MapPage(rd.Start+VPN(i), mem.PFN(i))
		ext.MapPage(re.Start+VPN(i), mem.PFN(i))
	}
	huge.MapRange(rh.Start, 0, pages)
	fd, fe, fh := dense.Footprint(), ext.Footprint(), huge.Footprint()
	if fe.Extents != 1 || fh.Extents != 1 {
		t.Fatalf("extents = %d/%d, want 1/1", fe.Extents, fh.Extents)
	}
	if fd.Extents != 0 {
		t.Fatalf("dense extents = %d, want 0", fd.Extents)
	}
	// Per-page extent mode still carries the per-page rmap, so it only
	// saves the pfns+estate arrays; it must still be strictly smaller.
	if fe.Bytes >= fd.Bytes {
		t.Fatalf("extent footprint %d not < dense %d", fe.Bytes, fd.Bytes)
	}
	// Huge-frame mode is the terabyte-scale configuration: the table
	// must cost under one byte of state per mapped base page.
	if fh.Bytes >= pages {
		t.Fatalf("huge footprint %d bytes >= 1 B/page over %d pages", fh.Bytes, pages)
	}
}

// FuzzExtentLockstep replays fuzz-found op streams through the lockstep
// harness. Each byte drives one step's op selection, so the corpus
// seeds below pin known-tricky interleavings (lazy split, re-merge at
// both edges, munmap with mixed eviction state).
func FuzzExtentLockstep(f *testing.F) {
	f.Add([]byte{0, 2, 2, 2, 2, 15, 2, 11})               // split then refill
	f.Add([]byte{2, 2, 2, 2, 16, 16, 18, 18, 2})          // double divergence, remerge
	f.Add([]byte{0, 2, 2, 11, 1, 0, 2, 2, 2, 15, 1})      // munmap with mixed state
	f.Add([]byte{2, 2, 2, 2, 2, 2, 11, 18, 11, 18, 2, 2}) // edge-state ping-pong
	f.Add([]byte{0, 0, 2, 2, 2, 1, 2, 2, 15, 16, 18, 1})  // region churn under evictions
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			t.Skip()
		}
		p := newLockstepPair(t)
		p.mmap(48, mem.Anon)
		p.mmap(96, mem.File)
		for i, b := range ops {
			// Derive a deterministic rng per step from the fuzz byte so
			// one byte selects both op and operand spread.
			rng := rand.New(rand.NewSource(int64(b)*2654435761 + int64(i)))
			p.step(rng)
		}
		p.check()
	})
}
