package mem

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestPageTypeString(t *testing.T) {
	cases := map[PageType]string{Anon: "anon", File: "file", Tmpfs: "tmpfs"}
	for pt, want := range cases {
		if pt.String() != want {
			t.Errorf("%d.String() = %q, want %q", pt, pt.String(), want)
		}
	}
	if PageType(9).String() != "pagetype(9)" {
		t.Errorf("unknown type string = %q", PageType(9).String())
	}
}

func TestPageTypeLRUClass(t *testing.T) {
	if Anon.LRUClass() != 0 {
		t.Error("anon should be LRU class 0")
	}
	if File.LRUClass() != 1 || Tmpfs.LRUClass() != 1 {
		t.Error("file-like pages should be LRU class 1")
	}
	if Anon.IsFileLike() {
		t.Error("anon is not file-like")
	}
	if !Tmpfs.IsFileLike() {
		t.Error("tmpfs is file-like")
	}
}

func TestFlagOps(t *testing.T) {
	var f Flags
	f = f.Set(PGActive | PGDirty)
	if !f.Has(PGActive) || !f.Has(PGDirty) {
		t.Fatal("Set failed")
	}
	if f.Has(PGActive | PGReferenced) {
		t.Fatal("Has should require all bits")
	}
	f = f.Clear(PGActive)
	if f.Has(PGActive) {
		t.Fatal("Clear failed")
	}
	if !f.Has(PGDirty) {
		t.Fatal("Clear removed unrelated bit")
	}
}

// Property: Set then Clear restores the original value for any flag word
// and any mask.
func TestFlagRoundTripProperty(t *testing.T) {
	f := func(orig, mask uint8) bool {
		fl := Flags(orig)
		m := Flags(mask)
		restored := fl.Set(m).Clear(m)
		return restored == fl.Clear(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStoreAllocFree(t *testing.T) {
	s := NewStore(8)
	p1 := s.Alloc(Anon, 0)
	p2 := s.Alloc(File, 1)
	if p1 == p2 {
		t.Fatal("duplicate PFNs")
	}
	if s.Page(p1).Type != Anon || s.Page(p2).Type != File {
		t.Fatal("type not recorded")
	}
	if s.Page(p1).Node != 0 || s.Page(p2).Node != 1 {
		t.Fatal("node not recorded")
	}
	if s.Live() != 2 {
		t.Fatalf("Live = %d, want 2", s.Live())
	}
	s.Free(p1)
	if s.Live() != 1 {
		t.Fatalf("Live after free = %d, want 1", s.Live())
	}
	// Recycled PFN comes back clean.
	p3 := s.Alloc(Tmpfs, 0)
	if p3 != p1 {
		t.Fatalf("free list not recycled: got %d, want %d", p3, p1)
	}
	pg := s.Page(p3)
	if pg.Type != Tmpfs || pg.Flags != 0 || pg.Prev != NilPFN || pg.Next != NilPFN {
		t.Fatalf("recycled page not reset: %+v", pg)
	}
}

// TestStoreLiveAligned checks the store's per-node counts against a
// count over its pages, through allocations, recycled PFNs, moves and
// frees, at every alignment from 1 to past the PFN width.
func TestStoreLiveAligned(t *testing.T) {
	s := NewStore(0)
	seed := uint64(5)
	next := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % n
	}
	check := func(step int) {
		for node := NodeID(0); node < 5; node++ {
			for shift := uint(0); shift <= 34; shift++ {
				var want uint64
				for pfn := 0; pfn < s.Len(); pfn++ {
					if s.Page(PFN(pfn)).Node == node && (shift >= 32 && pfn == 0 || shift < 32 && pfn%(1<<shift) == 0) {
						want++
					}
				}
				if got := s.LiveAligned(node, shift); got != want {
					t.Fatalf("step %d: LiveAligned(%d, %d) = %d, want %d", step, node, shift, got, want)
				}
			}
		}
	}
	for step := 0; step < 3000; step++ {
		switch op := next(10); {
		case op < 5 || s.Live() == 0:
			s.Alloc(Anon, NodeID(next(4)))
		case op < 8:
			if pfn := PFN(next(s.Len())); s.Page(pfn).Node != NilNode {
				s.Move(pfn, NodeID(next(4)))
			}
		default:
			if pfn := PFN(next(s.Len())); s.Page(pfn).Node != NilNode {
				s.Free(pfn)
			}
		}
		if step%100 == 0 {
			check(step)
		}
	}
	check(3000)
}

func TestStoreFreePanicsOnLRUPage(t *testing.T) {
	s := NewStore(1)
	p := s.Alloc(Anon, 0)
	s.Page(p).Flags = s.Page(p).Flags.Set(PGOnLRU)
	defer func() {
		if recover() == nil {
			t.Fatal("Free of on-LRU page did not panic")
		}
	}()
	s.Free(p)
}

func TestDefaultWatermarks(t *testing.T) {
	w := DefaultWatermarks(10000, 0.02)
	if w.Min != 50 || w.Low != 100 || w.High != 200 {
		t.Fatalf("min/low/high = %d/%d/%d", w.Min, w.Low, w.High)
	}
	if w.Alloc != w.Low {
		t.Fatalf("alloc = %d, want low %d", w.Alloc, w.Low)
	}
	if w.Demote != w.High+200 {
		t.Fatalf("demote = %d, want %d", w.Demote, w.High+200)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWatermarksTinyCapacity(t *testing.T) {
	w := DefaultWatermarks(10, 0.02)
	if err := w.Validate(); err != nil {
		t.Fatalf("tiny capacity watermarks invalid: %v", err)
	}
	if w.Min < 1 {
		t.Fatal("min clamped below 1")
	}
}

func TestWatermarkValidateRejectsBadOrder(t *testing.T) {
	bad := []Watermarks{
		{Min: 10, Low: 5, High: 20, Alloc: 5, Demote: 25},
		{Min: 1, Low: 5, High: 4, Alloc: 5, Demote: 25},
		{Min: 1, Low: 2, High: 3, Alloc: 30, Demote: 25},
		{Min: 1, Low: 2, High: 10, Alloc: 2, Demote: 5},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("case %d: invalid watermarks accepted: %+v", i, w)
		}
	}
}

// Property: for any capacity >= 1 and scale factor in [0.005, 0.2],
// DefaultWatermarks validates.
func TestDefaultWatermarksAlwaysValid(t *testing.T) {
	f := func(capRaw uint32, sfRaw uint8) bool {
		capacity := uint64(capRaw%1_000_000) + 1
		sf := 0.005 + float64(sfRaw%40)/200 // 0.005 .. 0.2
		return DefaultWatermarks(capacity, sf).Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeAcquireRelease(t *testing.T) {
	n := NewNode(0, KindLocal, 100, 0.02)
	if n.Free() != 100 {
		t.Fatalf("fresh node free = %d", n.Free())
	}
	for i := 0; i < 100; i++ {
		if !n.Acquire(Anon) {
			t.Fatalf("Acquire failed at %d", i)
		}
	}
	if n.Acquire(Anon) {
		t.Fatal("Acquire beyond capacity succeeded")
	}
	if n.Free() != 0 || n.Resident() != 100 || n.ResidentByType(Anon) != 100 {
		t.Fatal("accounting wrong at full")
	}
	n.Release(Anon)
	if n.Free() != 1 {
		t.Fatal("Release did not free a page")
	}
}

func TestNodeReleaseUnderflowPanics(t *testing.T) {
	n := NewNode(0, KindLocal, 10, 0.02)
	n.Acquire(Anon)
	defer func() {
		if recover() == nil {
			t.Fatal("type-mismatched release did not panic")
		}
	}()
	n.Release(File) // wrong type: underflows the per-type counter
}

func TestNodeWatermarkPredicates(t *testing.T) {
	n := NewNode(0, KindLocal, 1000, 0.02)
	// free=1000: everything fine
	if n.BelowLow() || n.BelowMin() || n.BelowDemote() {
		t.Fatal("fresh node reports pressure")
	}
	if !n.AllocOK() {
		t.Fatal("fresh node refuses allocation")
	}
	// Fill until free drops below demote watermark (high=20 + 20 = 40).
	for n.Free() >= n.WM.Demote {
		n.Acquire(Anon)
	}
	if !n.BelowDemote() {
		t.Fatal("BelowDemote false below demotion watermark")
	}
	if n.BelowLow() {
		t.Fatal("BelowLow true while still above low watermark")
	}
	// Fill until below low.
	for n.Free() >= n.WM.Low {
		n.Acquire(Anon)
	}
	if !n.BelowLow() {
		t.Fatal("BelowLow false")
	}
	if n.AllocOK() {
		t.Fatal("AllocOK true at/below the allocation watermark")
	}
	// Fill to below min.
	for n.Free() >= n.WM.Min {
		n.Acquire(Anon)
	}
	if !n.BelowMin() {
		t.Fatal("BelowMin false")
	}
}

// Property: any interleaving of Acquire/Release keeps 0 <= resident <=
// capacity and per-type counts summing to resident.
func TestNodeAccountingProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		n := NewNode(1, KindCXL, 64, 0.02)
		live := [NumPageTypes]uint64{}
		for _, op := range ops {
			pt := PageType(op % 3)
			if op&0x80 == 0 {
				if n.Acquire(pt) {
					live[pt]++
				}
			} else if live[pt] > 0 {
				n.Release(pt)
				live[pt]--
			}
			var sum uint64
			for t := 0; t < NumPageTypes; t++ {
				if n.ResidentByType(PageType(t)) != live[t] {
					return false
				}
				sum += live[t]
			}
			if n.Resident() != sum || n.Resident() > n.Capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeString(t *testing.T) {
	n := NewNode(2, KindCXL, 10, 0.02)
	n.Acquire(File)
	got := n.String()
	want := "node2(cxl cap=10 resident=1 free=9)"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestPageIs16Bytes pins the page record's size. Every simulated access
// reads its page, and at 16 bytes four pages share a 64-byte cache line.
func TestPageIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Page{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(mem.Page{}) = %d, want 16: a new field must first move an existing one out of Page", got)
	}
}
