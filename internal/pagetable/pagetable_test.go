package pagetable

import (
	"testing"
	"testing/quick"

	"tppsim/internal/mem"
)

func TestMmapRegionsDisjoint(t *testing.T) {
	as := New(1)
	r1 := as.Mmap(100, mem.Anon)
	r2 := as.Mmap(50, mem.File)
	if r1.End() > r2.Start {
		t.Fatalf("regions overlap: %+v %+v", r1, r2)
	}
	if !r1.Contains(r1.Start) || r1.Contains(r1.End()) {
		t.Fatal("Contains boundary wrong")
	}
	if len(as.Regions()) != 2 {
		t.Fatal("region list wrong")
	}
}

func TestMapTranslateUnmap(t *testing.T) {
	as := New(1)
	r := as.Mmap(10, mem.Anon)
	as.MapPage(r.Start, 42)
	pfn, ok := as.Translate(r.Start)
	if !ok || pfn != 42 {
		t.Fatalf("Translate = %d,%v", pfn, ok)
	}
	if _, ok := as.Translate(r.Start + 1); ok {
		t.Fatal("unmapped VPN translated")
	}
	got, ok := as.UnmapPage(r.Start)
	if !ok || got != 42 {
		t.Fatal("UnmapPage wrong")
	}
	if as.Mapped() != 0 {
		t.Fatal("Mapped count wrong")
	}
}

func TestDoubleMapPanics(t *testing.T) {
	as := New(1)
	r := as.Mmap(1, mem.Anon)
	as.MapPage(r.Start, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("double map did not panic")
		}
	}()
	as.MapPage(r.Start, 2)
}

func TestMunmapReturnsMappedPFNs(t *testing.T) {
	as := New(1)
	r := as.Mmap(5, mem.File)
	as.MapPage(r.Start, 10)
	as.MapPage(r.Start+2, 12)
	pfns := as.Munmap(r)
	if len(pfns) != 2 {
		t.Fatalf("Munmap returned %d PFNs, want 2", len(pfns))
	}
	seen := map[mem.PFN]bool{}
	for _, p := range pfns {
		seen[p] = true
	}
	if !seen[10] || !seen[12] {
		t.Fatalf("Munmap PFNs wrong: %v", pfns)
	}
	if as.Mapped() != 0 || len(as.Regions()) != 0 {
		t.Fatal("Munmap left state behind")
	}
}

func TestMunmapUnknownPanics(t *testing.T) {
	as := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("munmap of unknown region did not panic")
		}
	}()
	as.Munmap(Region{Start: 1, Pages: 1})
}

func TestRegionOf(t *testing.T) {
	as := New(1)
	r1 := as.Mmap(10, mem.Anon)
	r2 := as.Mmap(10, mem.Tmpfs)
	got, ok := as.RegionOf(r2.Start + 5)
	if !ok || got.Start != r2.Start || got.Type != mem.Tmpfs {
		t.Fatal("RegionOf wrong")
	}
	if _, ok := as.RegionOf(r1.End()); ok {
		t.Fatal("guard gap resolved to a region")
	}
}

func TestForEachMapped(t *testing.T) {
	as := New(1)
	r := as.Mmap(4, mem.Anon)
	for i := uint64(0); i < 4; i++ {
		as.MapPage(r.Start+VPN(i), mem.PFN(i+100))
	}
	count := 0
	as.ForEachMapped(func(v VPN, pfn mem.PFN) { count++ })
	if count != 4 {
		t.Fatalf("visited %d, want 4", count)
	}
}

func TestReverseMap(t *testing.T) {
	as := New(1)
	r := as.Mmap(4, mem.Anon)
	as.MapPage(r.Start+1, 77)
	v, ok := as.VPNOf(77)
	if !ok || v != r.Start+1 {
		t.Fatalf("VPNOf = %d,%v", v, ok)
	}
	if _, ok := as.VPNOf(78); ok {
		t.Fatal("unknown PFN resolved")
	}
	as.UnmapPage(r.Start + 1)
	if _, ok := as.VPNOf(77); ok {
		t.Fatal("UnmapPage left rmap entry")
	}
}

func TestUnmapPFNEviction(t *testing.T) {
	as := New(1)
	r := as.Mmap(4, mem.Anon)
	as.MapPage(r.Start, 5)
	v, ok := as.UnmapPFN(5, EvictSwap)
	if !ok || v != r.Start {
		t.Fatalf("UnmapPFN = %d,%v", v, ok)
	}
	if as.Evicted(r.Start) != EvictSwap {
		t.Fatal("eviction kind not recorded")
	}
	if as.EvictedCount(EvictSwap) != 1 || as.EvictedCount(EvictNone) != 1 {
		t.Fatal("EvictedCount wrong")
	}
	if _, ok := as.Translate(r.Start); ok {
		t.Fatal("translation survived UnmapPFN")
	}
	// Re-mapping clears the eviction record (swap-in path).
	as.MapPage(r.Start, 6)
	if as.Evicted(r.Start) != EvictNone {
		t.Fatal("MapPage did not clear eviction record")
	}
}

func TestUnmapPFNUnknown(t *testing.T) {
	as := New(1)
	if _, ok := as.UnmapPFN(99, EvictFile); ok {
		t.Fatal("UnmapPFN of unmapped PFN succeeded")
	}
}

func TestMunmapClearsEvicted(t *testing.T) {
	as := New(1)
	r := as.Mmap(2, mem.File)
	as.MapPage(r.Start, 1)
	as.UnmapPFN(1, EvictFile)
	as.Munmap(r)
	if as.EvictedCount(EvictNone) != 0 {
		t.Fatal("Munmap left eviction records")
	}
}

func TestRegionAccessorsNoCopy(t *testing.T) {
	as := New(1)
	r1 := as.Mmap(10, mem.Anon)
	r2 := as.Mmap(20, mem.File)
	if as.NumRegions() != 2 {
		t.Fatalf("NumRegions = %d", as.NumRegions())
	}
	if as.RegionAt(0) != r1 || as.RegionAt(1) != r2 {
		t.Fatal("RegionAt order wrong")
	}
	if as.TotalPages() != 30 {
		t.Fatalf("TotalPages = %d", as.TotalPages())
	}
	var seen []Region
	as.ForEachRegion(func(r Region) bool {
		seen = append(seen, r)
		return true
	})
	if len(seen) != 2 || seen[0] != r1 {
		t.Fatal("ForEachRegion wrong")
	}
	seen = seen[:0]
	as.ForEachRegion(func(r Region) bool {
		seen = append(seen, r)
		return false
	})
	if len(seen) != 1 {
		t.Fatal("ForEachRegion ignored early stop")
	}
	as.Munmap(r1)
	if as.NumRegions() != 1 || as.RegionAt(0) != r2 || as.TotalPages() != 20 {
		t.Fatal("accessors stale after Munmap")
	}
}

func TestTranslateBatchMatchesTranslate(t *testing.T) {
	as := New(1)
	r1 := as.Mmap(100, mem.Anon)
	r2 := as.Mmap(50, mem.File)
	as.MapPage(r1.Start+3, 30)
	as.MapPage(r1.Start+99, 31)
	as.MapPage(r2.Start, 32)
	vs := []VPN{
		r1.Start + 3, r1.Start + 4, r2.Start, r1.Start + 99,
		r1.End() + 1, // guard gap
		VPN(1 << 40), // far beyond the mapped span
	}
	out := make([]mem.PFN, len(vs))
	as.TranslateBatch(vs, out)
	for i, v := range vs {
		pfn, ok := as.Translate(v)
		if !ok {
			pfn = mem.NilPFN
		}
		if out[i] != pfn {
			t.Fatalf("batch[%d] (VPN %d) = %d, Translate = %d", i, v, out[i], pfn)
		}
	}
}

func TestMapPageOutsideRegionPanics(t *testing.T) {
	as := New(1)
	as.Mmap(4, mem.Anon)
	defer func() {
		if recover() == nil {
			t.Fatal("map outside any region did not panic")
		}
	}()
	as.MapPage(VPN(1<<30), 1)
}

func TestEvictedCountTransitions(t *testing.T) {
	as := New(1)
	r := as.Mmap(8, mem.Anon)
	for i := 0; i < 4; i++ {
		as.MapPage(r.Start+VPN(i), mem.PFN(i))
	}
	as.UnmapPFN(0, EvictSwap)
	as.UnmapPFN(1, EvictSwap)
	as.UnmapPFN(2, EvictFile)
	if as.EvictedCount(EvictSwap) != 2 || as.EvictedCount(EvictFile) != 1 || as.EvictedCount(EvictNone) != 3 {
		t.Fatalf("counts = swap %d file %d all %d",
			as.EvictedCount(EvictSwap), as.EvictedCount(EvictFile), as.EvictedCount(EvictNone))
	}
	// Refault clears the record.
	as.MapPage(r.Start, 9)
	if as.EvictedCount(EvictSwap) != 1 || as.EvictedCount(EvictNone) != 2 {
		t.Fatal("MapPage did not decrement eviction counters")
	}
	// Munmap clears the rest.
	as.Munmap(r)
	if as.EvictedCount(EvictNone) != 0 {
		t.Fatal("Munmap left eviction counters")
	}
}

// Property: mapping then unmapping arbitrary distinct VPN sets leaves the
// table empty and returns every PFN exactly once.
func TestMapUnmapProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		as := New(9)
		r := as.Mmap(1<<16, mem.Anon)
		seen := map[VPN]bool{}
		want := 0
		for i, off := range offsets {
			v := r.Start + VPN(off)
			if seen[v] {
				continue
			}
			seen[v] = true
			as.MapPage(v, mem.PFN(i))
			want++
		}
		if as.Mapped() != want {
			return false
		}
		pfns := as.Munmap(r)
		return len(pfns) == want && as.Mapped() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestScanMarks pins the scan-mark contract on every table shape: a map
// sets the mark of each slot it maps, MarkPFN sets the mark of a mapped
// PFN's slot and ignores unmapped and never-seen PFNs, MarkVPN sets the
// mark of the slot holding any VPN of a region and ignores the rest,
// unmaps leave marks set, and a region's marks die with it.
func TestScanMarks(t *testing.T) {
	for _, tc := range []struct {
		name  string
		as    *AddressSpace
		shift uint
	}{
		{"dense", New(1), 0},
		{"extent", NewExtent(1, 0), 0},
		{"huge", NewExtent(1, mem.HugeFrameShift), mem.HugeFrameShift},
	} {
		t.Run(tc.name, func(t *testing.T) {
			as := tc.as
			fp := VPN(1) << tc.shift
			// 130 slots: three mark words, the last holding two slots.
			r := as.Mmap(130*uint64(fp), mem.Anon)
			marks := as.ScanMarks(0)
			if len(marks) != 3 {
				t.Fatalf("%d mark words for 130 slots, want 3", len(marks))
			}
			as.MapRange(r.Start, 10, uint64(fp))
			as.MapRange(r.Start+65*fp, 11, uint64(fp))
			as.MapRange(r.Start+129*fp, 12, uint64(fp))
			if marks[0] != 1 || marks[1] != 2 || marks[2] != 2 {
				t.Fatalf("marks after map = %#x, want [0x1 0x2 0x2]", marks)
			}
			for w := range marks {
				marks[w] = 0 // read by the scan
			}
			as.MarkPFN(11)
			as.MarkPFN(13)      // never mapped, inside the rmap
			as.MarkPFN(1 << 20) // past the rmap
			if marks[0] != 0 || marks[1] != 2 || marks[2] != 0 {
				t.Fatalf("marks after MarkPFN = %#x, want [0 0x2 0]", marks)
			}
			as.MarkVPN(r.Start + 128*fp + fp - 1) // last VPN of slot 128
			as.MarkVPN(r.End())                   // guard gap
			if marks[2] != 1 {
				t.Fatalf("mark word 2 after MarkVPN = %#x, want 0x1", marks[2])
			}
			as.UnmapPFN(11, EvictSwap)
			as.MarkPFN(11) // unmapped now: no slot
			if marks[1] != 2 {
				t.Fatalf("unmap changed the mark word to %#x", marks[1])
			}
			as.Munmap(r)
			r = as.Mmap(uint64(fp), mem.File)
			if got := as.ScanMarks(0); len(got) != 1 || got[0] != 0 {
				t.Fatalf("fresh region marks = %#x, want [0]", got)
			}
			as.MapRange(r.Start, 10, uint64(fp))
			if got := as.ScanMarks(0)[0]; got != 1 {
				t.Fatalf("fresh region mark after map = %#x, want 0x1", got)
			}
		})
	}
}
