// Package pagetable models per-process virtual address spaces: the
// VPN→PFN mapping the workload faults pages into, the region bookkeeping
// (mmap/munmap), and the translation interface Chameleon's Worker uses as
// its /proc/$PID/pagemap analogue (§3 of the paper).
//
// Layout. The address space is flat and slice-backed, in the style of
// memtierd's dense address-range tracking: each region carries a dense
// []mem.PFN translation array plus a packed per-page eviction-state byte,
// and the reverse map is a dense []VPN indexed by PFN (PFNs are allocated
// densely by mem.Store, so the rmap sits logically next to the page
// store). Regions are kept sorted by start address in parallel dense
// starts/ends arrays, and RegionOf/Translate resolve through a coarse
// bucket index over the VPN span (rebuilt on the rare Mmap/Munmap):
// buckets finer than a region hit it directly, boundary buckets fall
// back to a short sorted walk. There are no hash maps anywhere on the
// access path; a one-entry region cache makes consecutive lookups into
// the same region two compares, and TranslateBatch resolves a whole
// access batch with the index state in registers. Eviction-state counts
// are maintained incrementally, so EvictedCount is O(1). Measured
// against the previous map-based design, the simulator's core tick
// (BenchmarkSimTick) runs ~2x faster with ~12x fewer allocated bytes.
//
// NUMA hint state. The NUMA-balancing scan (package numab) poisons a
// PTE by setting its frame slot's hint, as the kernel's change_prot_numa
// makes a PTE PROT_NONE, and the next access through the slot takes a
// hint fault. A frame slot is a page on 4 KB tables and a 2 MB frame in
// huge mode. The dense table keeps the hint where the kernel does, in
// the PTE: it is the top bit of the slot's PFN word (HintBit), so the
// translation reads it for free. The extent table keeps one hint bit
// per slot in a per-region bitmap beside its extent list, which stays
// the same with or without hints. TranslateHinted and
// TranslateBatchHinted hand the hint out with the PFN, on both kinds;
// every other call hands out clean PFNs. Once TrackHints turns it on,
// each region also carries scan marks in a number of lanes, one lane
// per node the scan samples, packed 64 slots to a word in VA order. The owner of the lanes keeps
// each slot's marks exact: a mapped, unhinted slot whose page sits on a
// sampled node has that node's lane bit set, and no other slot has a
// mark. So the scan finds its candidates with word operations and never
// reads a translation or the page store. Every unmap clears the slot's
// hint and marks, so an unmapped slot has neither. The bitmaps cost
// lanes bits per slot (plus one on the extent table) and are counted
// by Footprint; a table that never calls TrackHints has none.
package pagetable

import (
	"fmt"
	"math/bits"
	"sort"

	"tppsim/internal/mem"
)

// VPN is a virtual page number within one address space.
type VPN uint64

// nilVPN is the reverse map's "no mapping" sentinel.
const nilVPN = ^VPN(0)

// Region is a contiguous run of virtual pages created by Mmap.
type Region struct {
	Start VPN
	Pages uint64
	Type  mem.PageType
}

// End returns one past the last VPN of the region.
func (r Region) End() VPN { return r.Start + VPN(r.Pages) }

// Contains reports whether the VPN falls inside the region.
func (r Region) Contains(v VPN) bool { return v >= r.Start && v < r.End() }

// EvictKind records why a previously-mapped VPN currently has no
// translation: reclaimed to swap (next access is a major fault that must
// swap the page back in) or a dropped clean file page (next access
// refaults from the backing file).
type EvictKind uint8

const (
	// EvictNone: the VPN has never been populated (or was munmapped);
	// first touch is an ordinary demand-zero / file-read minor fault.
	EvictNone EvictKind = iota
	// EvictSwap: the page was swapped out; refault is a major fault.
	EvictSwap
	// EvictFile: a clean file page was dropped; refault re-reads the file.
	EvictFile
	numEvictKinds
)

// regionState is one region plus its per-page state: the dense VPN→PFN
// translation array and the packed eviction-state byte for pages that
// currently have no translation.
type regionState struct {
	Region
	pfns   []mem.PFN   // index: v - Start; mem.NilPFN = not mapped
	estate []EvictKind // valid only where pfns[i] == mem.NilPFN
	// exts is the extent-mode representation (see extent.go): a sorted,
	// disjoint run list replacing the dense arrays above, which stay nil.
	exts []extent
	// marks holds the scan mark of frame slot s (VPNs Start+s<<frameShift
	// onward) in lane l as bit s%64 of word (s/64)*lanes+l; hints holds
	// an extent table's hint bits as bit s%64 of word s/64. Both are nil
	// unless hint tracking is on, and hints is always nil on the dense
	// table, whose hints live in pfns.
	marks []uint64
	hints []uint64
}

// HintBit is a slot's NUMA hint in a translated word: the dense table
// keeps it in the slot's PFN word, and TranslateBatchHinted hands it out
// with the PFN on both table kinds. mem.NilPFN has it set too but means
// unmapped, never hinted, so a reader tests for mem.NilPFN first.
const HintBit mem.PFN = 1 << 31

// PFNLimit bounds the PFNs the table maps: MapPage and MapRange refuse
// any PFN from it on. So a mapped PFN never has HintBit set, and a
// hinted word, the largest being PFNLimit-1|HintBit, never reads as
// mem.NilPFN.
const PFNLimit = HintBit - 1

// splitPFN splits a translated word into its PFN and its hint.
func splitPFN(w mem.PFN) (mem.PFN, bool) {
	if w+1 > HintBit { // the hint bit set, and not mem.NilPFN
		return w &^ HintBit, true
	}
	return w, false
}

// AddressSpace is one process's page table, including the reverse map
// (PFN→VPN) reclaim needs to unmap victim pages.
type AddressSpace struct {
	PID     int
	regions []regionState // sorted by Start
	starts  []VPN         // starts[i] == regions[i].Start; dense search key
	ends    []VPN         // ends[i] == regions[i].End(); dense bound check
	rmap    []VPN         // indexed by PFN; nilVPN = not mapped here
	nextVPN VPN

	mapped     int
	totalPages uint64
	// gen counts translation removals (UnmapPage/UnmapPFN/Munmap).
	// Batch consumers snapshot it to detect that previously-resolved
	// translations may have been invalidated (e.g. by direct reclaim
	// triggered mid-batch) and must re-resolve.
	gen uint64
	// evictedByKind counts currently-evicted VPNs per EvictKind, so
	// EvictedCount is O(1). Index EvictNone is unused.
	evictedByKind [numEvictKinds]int
	// lastIdx/lastStart/lastEnd cache the most recent lookup's region;
	// consecutive accesses often hit the same region and resolve with
	// two compares and no pointer chase.
	lastIdx   int
	lastStart VPN
	lastEnd   VPN
	// bucket is a coarse VPN→region accelerator. A negative entry
	// -(j+1) means every VPN in the bucket lies inside region j (the
	// common case: buckets are finer than the big regions), so a lookup
	// is a single table read. A non-negative entry j is the index of the
	// first region that could contain a VPN in the bucket, and the
	// lookup walks the dense starts array from there. Rebuilt on
	// Mmap/Munmap (rare) for O(1) hot-path lookups.
	bucket []int32
	shift  uint

	// Extent mode (NewExtent): regions hold sorted extent lists instead
	// of dense per-page arrays, and PFNs address frames of
	// 1<<frameShift base pages (frameShift 0 = per-page extents,
	// mem.HugeFrameShift = 2 MB huge frames). splits/merges count the
	// table's lazy-divergence churn.
	ext        bool
	frameShift uint
	framePages uint64 // 1 << frameShift
	splits     uint64
	merges     uint64

	// hinting is set by TrackHints; lanes is the scan-mark lane count;
	// nHinted counts the hinted slots, so that while there are none the
	// access path reads no hint at all.
	hinting bool
	lanes   int
	nHinted int
}

// indexBuckets sizes the coarse lookup table; 1024 four-byte entries keep
// it resident in L1 while holding regions-per-bucket near one.
const indexBuckets = 1024

// rebuildIndex recomputes the bucket table after the region list or the
// VPN span changed.
func (as *AddressSpace) rebuildIndex() {
	as.shift = 0
	for (uint64(as.nextVPN) >> as.shift) >= indexBuckets {
		as.shift++
	}
	if as.bucket == nil {
		as.bucket = make([]int32, indexBuckets)
	}
	j := 0
	for k := 0; k < indexBuckets; k++ {
		start := VPN(uint64(k) << as.shift)
		end := VPN(uint64(k+1) << as.shift)
		for j < len(as.regions) && as.regions[j].End() <= start {
			j++
		}
		if j < len(as.regions) && as.regions[j].Start <= start && end <= as.regions[j].End() {
			as.bucket[k] = -int32(j) - 1 // bucket wholly inside region j
		} else {
			as.bucket[k] = int32(j)
		}
	}
	as.lastIdx, as.lastStart, as.lastEnd = 0, 0, 0
}

// New returns an empty address space for the given PID.
func New(pid int) *AddressSpace {
	return &AddressSpace{PID: pid, framePages: 1}
}

// Mmap reserves a new region of the given size and page type. Pages are
// not populated; the workload faults them in via MapPage on first touch,
// mirroring demand paging.
func (as *AddressSpace) Mmap(pages uint64, t mem.PageType) Region {
	if as.ext && as.frameShift > 0 {
		// Huge frames: align region starts so every frame's VPN span
		// stays inside one region (a no-op at frameShift 0, keeping the
		// extent table's layout identical to the dense one).
		fp := VPN(as.framePages)
		as.nextVPN = (as.nextVPN + fp - 1) &^ (fp - 1)
	}
	r := Region{Start: as.nextVPN, Pages: pages, Type: t}
	rs := regionState{Region: r}
	if as.hinting {
		words := ((pages+as.framePages-1)>>as.frameShift + 63) / 64
		rs.marks = make([]uint64, words*uint64(as.lanes))
		if as.ext {
			rs.hints = make([]uint64, words)
		}
	}
	if !as.ext {
		rs.pfns = make([]mem.PFN, pages)
		rs.estate = make([]EvictKind, pages)
		for i := range rs.pfns {
			rs.pfns[i] = mem.NilPFN
		}
	}
	// nextVPN only grows, so appending keeps the index sorted by Start.
	as.regions = append(as.regions, rs)
	as.starts = append(as.starts, r.Start)
	as.ends = append(as.ends, r.End())
	as.totalPages += pages
	// Leave a guard gap so regions are never adjacent; catches off-by-one
	// arithmetic in workload generators.
	as.nextVPN += VPN(pages) + 16
	as.rebuildIndex()
	return r
}

// regionIndexOf returns the index of the region containing v, or -1.
func (as *AddressSpace) regionIndexOf(v VPN) int {
	if v >= as.lastStart && v < as.lastEnd {
		return as.lastIdx
	}
	k := uint64(v) >> as.shift
	if k >= indexBuckets || len(as.bucket) == 0 {
		return -1 // beyond the mapped span: no region can contain v
	}
	b := as.bucket[k]
	if b < 0 {
		// Bucket wholly inside one region: direct hit, no walk.
		idx := int(-b) - 1
		as.lastIdx, as.lastStart, as.lastEnd = idx, as.starts[idx], as.ends[idx]
		return idx
	}
	// Walk the dense starts array from the bucket's first candidate to
	// the last region starting at or before v.
	starts := as.starts
	idx := -1
	for j := int(b); j < len(starts) && starts[j] <= v; j++ {
		idx = j
	}
	if idx >= 0 && v < as.ends[idx] {
		as.lastIdx, as.lastStart, as.lastEnd = idx, as.starts[idx], as.ends[idx]
		return idx
	}
	return -1
}

// regionOf returns the region state containing v, or nil.
func (as *AddressSpace) regionOf(v VPN) *regionState {
	if i := as.regionIndexOf(v); i >= 0 {
		return &as.regions[i]
	}
	return nil
}

// Munmap removes the region, appends the PFNs of all pages that were
// mapped inside it to pfns in ascending VPN order, and returns the
// extended slice, so the caller can release node residency and free
// them (and reuse one buffer across calls). Unknown regions panic: the
// simulator controls all regions.
func (as *AddressSpace) Munmap(r Region, pfns []mem.PFN) []mem.PFN {
	idx := sort.Search(len(as.starts), func(i int) bool { return as.starts[i] >= r.Start })
	if idx >= len(as.regions) || as.regions[idx].Start != r.Start || as.regions[idx].Pages != r.Pages {
		panic(fmt.Sprintf("pagetable: munmap of unknown region %+v", r))
	}
	rs := &as.regions[idx]
	if as.ext {
		pfns = as.munmapExtents(rs, pfns)
		as.regions = append(as.regions[:idx], as.regions[idx+1:]...)
		as.starts = append(as.starts[:idx], as.starts[idx+1:]...)
		as.ends = append(as.ends[:idx], as.ends[idx+1:]...)
		as.totalPages -= r.Pages
		as.gen++
		as.rebuildIndex()
		return pfns
	}
	for i, w := range rs.pfns {
		if w == mem.NilPFN {
			if k := rs.estate[i]; k != EvictNone {
				as.evictedByKind[k]--
			}
			continue
		}
		as.nHinted -= int(w >> 31) // a mapped word's hint bit
		pfn := w &^ HintBit
		pfns = append(pfns, pfn)
		as.rmap[pfn] = nilVPN
		as.mapped--
	}
	as.regions = append(as.regions[:idx], as.regions[idx+1:]...)
	as.starts = append(as.starts[:idx], as.starts[idx+1:]...)
	as.ends = append(as.ends[:idx], as.ends[idx+1:]...)
	as.totalPages -= r.Pages
	as.gen++
	as.rebuildIndex()
	return pfns
}

// growRmap ensures the reverse map covers pfn.
func (as *AddressSpace) growRmap(pfn mem.PFN) {
	for int(pfn) >= len(as.rmap) {
		as.rmap = append(as.rmap, nilVPN)
	}
}

// MapPage installs a translation, unhinted. It panics on double-map
// (which would indicate a fault-handling bug), on VPNs outside every
// region and on PFNs from PFNLimit on. Any eviction record for the VPN
// is cleared: the page is resident again.
func (as *AddressSpace) MapPage(v VPN, pfn mem.PFN) {
	if as.ext {
		as.MapRange(v, pfn, 1)
		return
	}
	rs := as.regionOf(v)
	if rs == nil {
		panic(fmt.Sprintf("pagetable: map of VPN %d outside any region", v))
	}
	if pfn >= PFNLimit {
		panic(fmt.Sprintf("pagetable: PFN %d reaches PFNLimit", pfn))
	}
	i := v - rs.Start
	if rs.pfns[i] != mem.NilPFN {
		panic(fmt.Sprintf("pagetable: double map of VPN %d", v))
	}
	rs.pfns[i] = pfn
	if k := rs.estate[i]; k != EvictNone {
		as.evictedByKind[k]--
		rs.estate[i] = EvictNone
	}
	as.growRmap(pfn)
	as.rmap[pfn] = v
	as.mapped++
}

// TrackHints turns on NUMA hint state with the given number of
// scan-mark lanes (see the package doc). It must be called before the
// first Mmap, so every region carries the bitmaps.
func (as *AddressSpace) TrackHints(lanes int) {
	if as.nextVPN != 0 {
		panic("pagetable: TrackHints after Mmap")
	}
	as.hinting, as.lanes = true, lanes
}

// ScanMarks returns region i's scan-mark words, lane l of the 64 slots
// from 64*w at index w*lanes+l (nil without hint tracking). The scan
// reads them in place and hands what it consumes to Poison.
func (as *AddressSpace) ScanMarks(i int) []uint64 { return as.regions[i].marks }

// slotOf returns the frame slot of v in rs.
func (as *AddressSpace) slotOf(rs *regionState, v VPN) uint64 {
	return uint64(v-rs.Start) >> as.frameShift
}

// hinted reports slot s's hint. On the dense table s is the page offset.
func (as *AddressSpace) hinted(rs *regionState, s uint64) bool {
	if as.ext {
		return rs.hints[s/64]>>(s%64)&1 != 0
	}
	_, h := splitPFN(rs.pfns[s])
	return h
}

// setMarks makes lane the only scan mark of slot s, or clears its marks
// when lane is negative.
func (as *AddressSpace) setMarks(rs *regionState, s uint64, lane int) {
	bit := uint64(1) << (s % 64)
	marks := rs.marks[s/64*uint64(as.lanes) : (s/64+1)*uint64(as.lanes)]
	for l := range marks {
		marks[l] &^= bit
	}
	if lane >= 0 {
		marks[lane] |= bit
	}
}

// clearHint clears the hint of slot s, which must be hinted.
func (as *AddressSpace) clearHint(rs *regionState, s uint64) {
	if as.ext {
		rs.hints[s/64] &^= 1 << (s % 64)
	} else {
		rs.pfns[s] &^= HintBit
	}
	as.nHinted--
}

// clearSlot drops the hint and the scan marks of the slot holding v,
// as an unmap must.
func (as *AddressSpace) clearSlot(rs *regionState, v VPN) {
	if !as.hinting {
		return
	}
	s := as.slotOf(rs, v)
	if as.nHinted > 0 && as.hinted(rs, s) {
		as.clearHint(rs, s)
	}
	as.setMarks(rs, s, -1)
}

// HintedSlots returns the number of hinted frame slots.
func (as *AddressSpace) HintedSlots() int { return as.nHinted }

// PlaceMark makes lane the only scan mark of the slot holding v, or
// clears its marks when lane is negative. A hinted slot is left as it
// is: it is no scan candidate wherever its page sits. The NUMA balancer
// calls it when a page is mapped or moves to another node.
func (as *AddressSpace) PlaceMark(v VPN, lane int) {
	if rs := as.regionOf(v); rs != nil {
		if s := as.slotOf(rs, v); as.nHinted == 0 || !as.hinted(rs, s) {
			as.setMarks(rs, s, lane)
		}
	}
}

// Unhint clears the hint of the slot holding v, as a hint fault
// restoring the PTE does, and makes lane its only scan mark (none when
// negative). It reports whether the slot was hinted; an unhinted slot
// is left as it is.
func (as *AddressSpace) Unhint(v VPN, lane int) bool {
	if as.nHinted == 0 {
		return false
	}
	rs := as.regionOf(v)
	if rs == nil {
		return false
	}
	s := as.slotOf(rs, v)
	if !as.hinted(rs, s) {
		return false
	}
	as.clearHint(rs, s)
	as.setMarks(rs, s, lane)
	return true
}

// MarkWord names the slots 64*W+k of a region for every bit k set in
// Slots.
type MarkWord struct{ W, Slots uint64 }

// Poison hints the slots named by words in region i and clears their
// scan marks: the NUMA-balancing scan's PTE poisoning of the candidates
// it consumed. Every slot must be mapped and unhinted, as every
// candidate is.
func (as *AddressSpace) Poison(i int, words []MarkWord) {
	rs := &as.regions[i]
	// The PFN words are scattered, about one candidate to a mark word
	// on a warm large machine; a tight loop of their writes alone keeps
	// many of their cache misses in flight.
	for _, mw := range words {
		as.nHinted += bits.OnesCount64(mw.Slots)
		if as.ext {
			rs.hints[mw.W] |= mw.Slots
			continue
		}
		pfns := rs.pfns[mw.W*64:]
		for rest := mw.Slots; rest != 0; rest &= rest - 1 {
			pfns[bits.TrailingZeros64(rest)] |= HintBit
		}
	}
	lanes := uint64(as.lanes)
	for _, mw := range words {
		marks := rs.marks[mw.W*lanes : (mw.W+1)*lanes]
		for l := range marks {
			marks[l] &^= mw.Slots
		}
	}
}

// UnmapPage removes a translation, returning the PFN that was mapped.
// In huge-frame extent mode the whole frame chunk containing v is
// unmapped (a frame translates as one unit); at frameShift 0 that is
// exactly v, matching the dense table.
func (as *AddressSpace) UnmapPage(v VPN) (mem.PFN, bool) {
	if as.ext {
		return as.unmapPageExtent(v)
	}
	rs := as.regionOf(v)
	if rs == nil {
		return mem.NilPFN, false
	}
	i := v - rs.Start
	pfn, _ := splitPFN(rs.pfns[i])
	if pfn == mem.NilPFN {
		return mem.NilPFN, false
	}
	as.clearSlot(rs, v)
	rs.pfns[i] = mem.NilPFN
	as.rmap[pfn] = nilVPN
	as.mapped--
	as.gen++
	return pfn, true
}

// VPNOf returns the VPN a PFN is mapped at (the rmap lookup reclaim uses
// to find the PTE for a victim page).
func (as *AddressSpace) VPNOf(pfn mem.PFN) (VPN, bool) {
	if int(pfn) >= len(as.rmap) || as.rmap[pfn] == nilVPN {
		return 0, false
	}
	return as.rmap[pfn], true
}

// UnmapPFN removes the translation for a PFN via the reverse map and
// records why, so the next touch of the VPN takes the right fault path.
// Returns the VPN that was unmapped.
func (as *AddressSpace) UnmapPFN(pfn mem.PFN, kind EvictKind) (VPN, bool) {
	if int(pfn) >= len(as.rmap) {
		return 0, false
	}
	v := as.rmap[pfn]
	if v == nilVPN {
		return 0, false
	}
	if as.ext {
		return as.unmapPFNExtent(pfn, v, kind)
	}
	rs := as.regionOf(v)
	i := v - rs.Start
	as.clearSlot(rs, v)
	rs.pfns[i] = mem.NilPFN
	as.rmap[pfn] = nilVPN
	as.mapped--
	as.gen++
	if kind != EvictNone {
		rs.estate[i] = kind
		as.evictedByKind[kind]++
	}
	return v, true
}

// Evicted reports whether (and how) the VPN's page was evicted.
func (as *AddressSpace) Evicted(v VPN) EvictKind {
	rs := as.regionOf(v)
	if rs == nil {
		return EvictNone
	}
	if as.ext {
		if e := findExtent(rs.exts, v); e != nil && e.pfn == mem.NilPFN {
			return e.state
		}
		return EvictNone
	}
	if rs.pfns[v-rs.Start] != mem.NilPFN {
		return EvictNone // mapped, hinted or not
	}
	return rs.estate[v-rs.Start]
}

// EvictedCount returns the number of VPNs currently evicted with the
// given kind; EvictNone counts all kinds. O(1): per-kind counters are
// maintained by MapPage/UnmapPFN/Munmap.
func (as *AddressSpace) EvictedCount(kind EvictKind) int {
	if kind == EvictNone {
		n := 0
		for _, c := range as.evictedByKind {
			n += c
		}
		return n
	}
	return as.evictedByKind[kind]
}

// Translate returns the PFN mapped at the VPN, if any. This is the
// simulator's /proc/$PID/pagemap.
func (as *AddressSpace) Translate(v VPN) (mem.PFN, bool) {
	pfn, _, ok := as.TranslateHinted(v)
	return pfn, ok
}

// TranslateHinted is Translate that also reports, from the same lookup,
// whether the slot holding v is hinted.
func (as *AddressSpace) TranslateHinted(v VPN) (pfn mem.PFN, hinted, ok bool) {
	rs := as.regionOf(v)
	if rs == nil {
		return mem.NilPFN, false, false
	}
	if as.ext {
		if e := findExtent(rs.exts, v); e != nil && e.pfn != mem.NilPFN {
			hinted = as.nHinted > 0 && as.hinted(rs, as.slotOf(rs, v))
			return e.pfn + mem.PFN((v-e.start)>>as.frameShift), hinted, true
		}
		return mem.NilPFN, false, false
	}
	pfn, hinted = splitPFN(rs.pfns[v-rs.Start])
	return pfn, hinted, pfn != mem.NilPFN
}

// TranslateBatch resolves out[i] to the translation of vs[i] (mem.NilPFN
// when unmapped), exactly equivalent to calling Translate per element but
// with the region cache and index state held in locals for the whole
// batch — the simulator's access loop resolves a full tick in one call.
func (as *AddressSpace) TranslateBatch(vs []VPN, out []mem.PFN) {
	as.TranslateBatchHinted(vs, out)
	if as.nHinted == 0 {
		return
	}
	for i, w := range out[:len(vs)] {
		if pfn, h := splitPFN(w); h {
			out[i] = pfn
		}
	}
}

// TranslateBatchHinted is TranslateBatch that leaves HintBit set in the
// word of each access whose slot is hinted. The hint is a snapshot: a
// hint fault taken by an earlier access of the batch clears the live
// bit (TranslateHinted) but not the word.
func (as *AddressSpace) TranslateBatchHinted(vs []VPN, out []mem.PFN) {
	if as.ext {
		as.translateBatchExtent(vs, out)
		return
	}
	starts, bucket, shift := as.starts, as.bucket, as.shift
	ends, regions := as.ends, as.regions
	for i, v := range vs {
		k := uint64(v) >> shift
		if k >= uint64(len(bucket)) {
			out[i] = mem.NilPFN
			continue
		}
		var idx int
		if b := bucket[k]; b < 0 {
			// Bucket wholly inside one region: no walk, no bound check.
			idx = int(-b) - 1
		} else {
			idx = -1
			for j := int(b); j < len(starts) && starts[j] <= v; j++ {
				idx = j
			}
			if idx < 0 || v >= ends[idx] {
				out[i] = mem.NilPFN
				continue
			}
		}
		out[i] = regions[idx].pfns[v-starts[idx]]
	}
}

// Gen returns the translation-removal generation: it advances on every
// UnmapPage/UnmapPFN/Munmap. A caller holding PFNs from TranslateBatch
// must treat them as stale once Gen changes.
func (as *AddressSpace) Gen() uint64 { return as.gen }

// Mapped returns the number of populated pages.
func (as *AddressSpace) Mapped() int { return as.mapped }

// TotalPages returns the number of virtual pages across all regions
// (mapped or not), maintained incrementally by Mmap/Munmap.
func (as *AddressSpace) TotalPages() uint64 { return as.totalPages }

// Regions returns a copy of the current region list, Chameleon's
// /proc/$PID/maps analogue. Hot callers should use NumRegions/RegionAt
// or ForEachRegion, which do not copy.
func (as *AddressSpace) Regions() []Region {
	out := make([]Region, len(as.regions))
	for i, rs := range as.regions {
		out[i] = rs.Region
	}
	return out
}

// NumRegions returns the number of regions.
func (as *AddressSpace) NumRegions() int { return len(as.regions) }

// RegionAt returns the i-th region in start-address order without
// copying the region list.
func (as *AddressSpace) RegionAt(i int) Region { return as.regions[i].Region }

// ForEachRegion visits every region in start-address order without
// copying the list. Return false to stop early. The region list must not
// be mutated during the walk.
func (as *AddressSpace) ForEachRegion(fn func(r Region) bool) {
	for _, rs := range as.regions {
		if !fn(rs.Region) {
			return
		}
	}
}

// RegionOf returns the region containing the VPN, resolved by binary
// search over the sorted region index.
func (as *AddressSpace) RegionOf(v VPN) (Region, bool) {
	if rs := as.regionOf(v); rs != nil {
		return rs.Region, true
	}
	return Region{}, false
}

// ForEachMapped visits every (VPN, PFN) pair in ascending VPN order. In
// huge-frame extent mode every VPN of a mapped frame is visited with the
// frame's PFN.
func (as *AddressSpace) ForEachMapped(fn func(v VPN, pfn mem.PFN)) {
	if as.ext {
		for ri := range as.regions {
			for _, e := range as.regions[ri].exts {
				if e.pfn == mem.NilPFN {
					continue
				}
				for o := uint64(0); o < e.pages; o++ {
					fn(e.start+VPN(o), e.pfn+mem.PFN(o>>as.frameShift))
				}
			}
		}
		return
	}
	for _, rs := range as.regions {
		for i, w := range rs.pfns {
			if pfn, _ := splitPFN(w); pfn != mem.NilPFN {
				fn(rs.Start+VPN(i), pfn)
			}
		}
	}
}
