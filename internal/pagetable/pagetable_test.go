package pagetable

import (
	"slices"
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

// TestMunmapReturnsMappedPFNs checks that Munmap appends the region's
// mapped PFNs to the caller's buffer in VPN order, keeping what the
// buffer held, and allocates nothing when the buffer has room.
func TestMunmapReturnsMappedPFNs(t *testing.T) {
	as := New(1)
	r := as.Mmap(5, mem.File)
	as.MapPage(r.Start+2, 12)
	as.MapPage(r.Start, 10)
	buf := make([]mem.PFN, 1, 8)
	buf[0] = 7
	pfns := as.Munmap(r, buf)
	if want := []mem.PFN{7, 10, 12}; !slices.Equal(pfns, want) {
		t.Fatalf("Munmap returned %v, want %v", pfns, want)
	}
	if &pfns[0] != &buf[0] {
		t.Fatal("Munmap reallocated a buffer with room to spare")
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
	as.Munmap(Region{Start: 1, Pages: 1}, nil)
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
	as.Munmap(r, nil)
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
	as.Munmap(r1, nil)
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
	as.Munmap(r, nil)
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
		pfns := as.Munmap(r, nil)
		return len(pfns) == want && as.Mapped() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestScanMarks pins the hint and scan-mark contract on every table
// shape: TrackHints gives each region one word per lane for every 64
// slots; a map sets nothing; PlaceMark makes one lane the slot's only
// mark, or clears its marks, and leaves a hinted slot alone; Poison
// hints slots and clears their marks; Unhint clears a hint and then
// places the mark, and reports whether there was one; every unmap clears
// the slot's hint and marks; the translations stay clean, and
// TranslateHinted and the hinted batch translation report each access's
// hint; and a region's marks die with it.
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
			as.TrackHints(2)
			fp := VPN(1) << tc.shift
			// 130 slots: three words per lane, the last holding two slots.
			r := as.Mmap(130*uint64(fp), mem.Anon)
			marks := as.ScanMarks(0)
			if len(marks) != 6 {
				t.Fatalf("%d mark words for 130 slots in 2 lanes, want 6", len(marks))
			}
			as.MapRange(r.Start, 10, uint64(fp))
			as.MapRange(r.Start+65*fp, 11, uint64(fp))
			as.MapRange(r.Start+129*fp, 12, uint64(fp))
			want := func(hinted []VPN, wantMarks ...uint64) {
				t.Helper()
				for w := range marks {
					if marks[w] != wantMarks[w] {
						t.Fatalf("marks = %#x, want %#x", marks, wantMarks)
					}
				}
				n := 0
				for v := r.Start; v < r.End(); v++ {
					if isHinted(as, v) {
						n++
					}
				}
				for _, v := range hinted {
					for o := VPN(0); o < fp; o++ {
						if !isHinted(as, v+o) {
							t.Fatalf("VPN %d not hinted", v+o)
						}
					}
				}
				if n != len(hinted)*int(fp) || as.HintedSlots() != len(hinted) {
					t.Fatalf("%d hinted VPNs in %d slots, want %d in %d", n, as.HintedSlots(), len(hinted)*int(fp), len(hinted))
				}
			}
			want(nil, 0, 0, 0, 0, 0, 0)
			as.PlaceMark(r.Start, 0)
			as.PlaceMark(r.Start+65*fp+fp-1, 1) // last VPN of slot 65
			as.PlaceMark(r.Start+129*fp, 1)
			as.PlaceMark(r.End(), 0) // guard gap: no slot
			want(nil, 1, 0, 0, 2, 0, 2)
			as.PlaceMark(r.Start+129*fp, 0) // moves to lane 0
			as.PlaceMark(r.Start, -1)       // clears
			want(nil, 0, 0, 0, 2, 2, 0)
			// The scan poisons slot 65 and clears its mark; a hinted
			// slot keeps no mark wherever its page moves.
			as.Poison(0, []MarkWord{{W: 1, Slots: 2}})
			as.PlaceMark(r.Start+65*fp, 0)
			want([]VPN{r.Start + 65*fp}, 0, 0, 0, 0, 2, 0)
			if pfn, ok := as.Translate(r.Start + 65*fp); !ok || pfn != 11 {
				t.Fatalf("hinted slot translates to %d,%v, want 11", pfn, ok)
			}
			if pfn, h, ok := as.TranslateHinted(r.Start + 65*fp + fp - 1); !ok || !h || pfn != 11 {
				t.Fatalf("TranslateHinted = %d,%v,%v, want 11,true,true", pfn, h, ok)
			}
			if v, ok := as.VPNOf(11); !ok || v != r.Start+65*fp {
				t.Fatalf("VPNOf(11) = %d,%v", v, ok)
			}
			vs := []VPN{r.Start + 65*fp, r.Start, r.Start + 65*fp + fp - 1, r.End(), r.Start + 64*fp}
			pfns := make([]mem.PFN, len(vs))
			as.TranslateBatch(vs, pfns)
			if pfns[0] != 11 || pfns[1] != 10 || pfns[2] != 11 || pfns[3] != mem.NilPFN || pfns[4] != mem.NilPFN {
				t.Fatalf("batch PFNs = %v, want [11 10 11 nil nil]", pfns)
			}
			as.TranslateBatchHinted(vs, pfns)
			if pfns[0] != 11|HintBit || pfns[1] != 10 || pfns[2] != 11|HintBit || pfns[3] != mem.NilPFN || pfns[4] != mem.NilPFN {
				t.Fatalf("hinted batch words = %#x, want [11|HintBit 10 11|HintBit nil nil]", pfns)
			}
			// A hint fault clears the hint, then marks the slot's lane;
			// a second one finds no hint and changes nothing.
			if !as.Unhint(r.Start+65*fp, 1) || as.Unhint(r.Start+65*fp, 0) {
				t.Fatal("Unhint does not report the hint it cleared")
			}
			want(nil, 0, 0, 0, 2, 2, 0)
			// Unmaps clear the hint and the marks.
			as.Poison(0, []MarkWord{{W: 1, Slots: 2}})
			as.UnmapPFN(11, EvictSwap)
			if pfn, ok := as.UnmapPage(r.Start + 129*fp); !ok || pfn != 12 {
				t.Fatalf("UnmapPage = %d,%v, want 12", pfn, ok)
			}
			want(nil, 0, 0, 0, 0, 0, 0)
			as.Poison(0, []MarkWord{{W: 0, Slots: 1}})
			if got := as.Munmap(r, nil); len(got) != 1 || got[0] != 10 || as.HintedSlots() != 0 {
				t.Fatalf("Munmap = %v leaving %d hinted slots, want [10] and 0", got, as.HintedSlots())
			}
			r = as.Mmap(uint64(fp), mem.File)
			as.MapRange(r.Start, 10, uint64(fp))
			if m := as.ScanMarks(0); len(m) != 2 || m[0]|m[1] != 0 || isHinted(as, r.Start) {
				t.Fatalf("fresh region marks = %#x, hinted %v, want [0 0], false", m, isHinted(as, r.Start))
			}
		})
	}
	as := New(1)
	r := as.Mmap(8, mem.Anon)
	as.MapPage(r.Start, 1)
	if as.ScanMarks(0) != nil || isHinted(as, r.Start) || as.Unhint(r.Start, 0) {
		t.Fatal("a table without hint tracking carries hint state")
	}
	out := make([]mem.PFN, 1)
	if as.TranslateBatchHinted([]VPN{r.Start}, out); out[0] != 1 {
		t.Fatalf("untracked hinted batch word = %#x, want 1", out[0])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("TrackHints after Mmap did not panic")
		}
	}()
	as.TrackHints(1)
}

// isHinted reports the hint of the slot holding v.
func isHinted(as *AddressSpace, v VPN) bool {
	_, h, _ := as.TranslateHinted(v)
	return h
}

// TestPFNLimit pins the bound that keeps a hinted word apart from
// mem.NilPFN: both table kinds refuse PFNs from PFNLimit on, and the
// largest PFN they map, hinted, still splits into itself and a hint.
func TestPFNLimit(t *testing.T) {
	if w := (PFNLimit - 1) | HintBit; w == mem.NilPFN {
		t.Fatalf("the largest hinted word is mem.NilPFN")
	}
	if pfn, h := splitPFN((PFNLimit - 1) | HintBit); pfn != PFNLimit-1 || !h {
		t.Fatalf("splitPFN(largest hinted word) = %d,%v, want %d,true", pfn, h, PFNLimit-1)
	}
	if pfn, h := splitPFN(mem.NilPFN); pfn != mem.NilPFN || h {
		t.Fatalf("splitPFN(mem.NilPFN) = %d,%v, want nil,false", pfn, h)
	}
	for _, tc := range []struct {
		name string
		as   *AddressSpace
		pfn  mem.PFN
	}{
		{"dense", New(1), PFNLimit},
		{"dense top bit", New(1), HintBit},
		{"extent", NewExtent(1, 0), PFNLimit},
		// The first frame is below the bound, the second reaches it.
		{"huge", NewExtent(1, mem.HugeFrameShift), PFNLimit - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.as.Mmap(2*mem.HugeFramePages, mem.Anon)
			defer func() {
				if recover() == nil {
					t.Fatalf("mapping PFN %d did not panic", tc.pfn)
				}
			}()
			tc.as.MapRange(r.Start, tc.pfn, r.Pages)
		})
	}
}
