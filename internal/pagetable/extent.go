// Extent mode: the range-compressed address-space representation behind
// the same AddressSpace API (memtierd tracks address ranges, DAMON
// tracks regions — the same bet: production address spaces are runs,
// not confetti).
//
// A region's translation state is a sorted, disjoint list of extents.
// Each extent is one run of virtual pages in one of two states:
//
//   - mapped: the run translates to physically-consecutive frames
//     starting at pfn (one frame covers 1<<frameShift base pages);
//   - evicted: the run has no translation and remembers why
//     (EvictSwap/EvictFile), so refaults take the right path.
//
// VPN ranges covered by no extent were never populated (or were
// unmapped without an eviction record) — the dense table's
// NilPFN/EvictNone combination, stored for free.
//
// Mutations keep the list canonical lazily: a mid-run eviction,
// migration unmap, or state write splits the covering extent into at
// most three pieces (lazy splitting), and every insertion tries to
// absorb its neighbors (opportunistic re-merge) — two mapped extents
// merge when their VPN runs and frame runs are both consecutive,
// evicted extents merge on equal state. splits/merges count that churn
// for the -mem-stats report and the extent_split/extent_merge counters.
//
// frameShift selects the frame size: 0 makes frames base pages, giving
// a representation observably identical to the dense table (pinned by
// the lockstep property test in extent_test.go); mem.HugeFrameShift (9)
// makes frames 2 MB huge pages — one PFN, one LRU entry, and one rmap
// slot per 512 base pages, which is what lets a terabyte-scale machine
// fit in a benchmark's memory budget.
package pagetable

import (
	"fmt"
	"math/bits"
	"unsafe"

	"tppsim/internal/mem"
)

// extent is one run of virtual pages sharing a translation state.
type extent struct {
	start VPN
	pages uint64
	// pfn is the first frame of the run (frame k holds VPNs
	// [start+k<<frameShift, ...)); mem.NilPFN marks an evicted run.
	pfn   mem.PFN
	state EvictKind // why an evicted run lost its translation
}

func (e *extent) end() VPN { return e.start + VPN(e.pages) }

// NewExtent returns an empty extent-mode address space. frameShift
// selects the pages-per-frame granularity: 0 behaves exactly like the
// dense table (per-page frames), mem.HugeFrameShift models 2 MB huge
// pages (PFNs then address 512-page frames).
func NewExtent(pid int, frameShift uint) *AddressSpace {
	return &AddressSpace{
		PID:        pid,
		ext:        true,
		frameShift: frameShift,
		framePages: 1 << frameShift,
	}
}

// ExtentMode reports whether the address space uses the extent
// representation.
func (as *AddressSpace) ExtentMode() bool { return as.ext }

// FrameShift returns log2 of the pages-per-frame granularity (0 in
// dense mode and in per-page extent mode).
func (as *AddressSpace) FrameShift() uint { return as.frameShift }

// ExtentSplits returns the cumulative count of extents split by
// mid-run divergence.
func (as *AddressSpace) ExtentSplits() uint64 { return as.splits }

// ExtentMerges returns the cumulative count of neighbor re-merges.
func (as *AddressSpace) ExtentMerges() uint64 { return as.merges }

// NumExtents returns the current extent count across all regions
// (0 in dense mode).
func (as *AddressSpace) NumExtents() int {
	n := 0
	for i := range as.regions {
		n += len(as.regions[i].exts)
	}
	return n
}

// FootprintStats is the address space's structural memory accounting,
// for the -mem-stats report and the cmd/bench footprint gate.
type FootprintStats struct {
	// Extents is the live extent count (0 in dense mode).
	Extents int
	// Splits/Merges are the cumulative lazy-split and re-merge totals.
	Splits, Merges uint64
	// Bytes is the table's backing storage: translation state, hint
	// bits and scan marks, reverse map, and region index.
	Bytes uint64
}

// Footprint computes the address space's structural memory use. It
// walks the region list, so call it at reporting boundaries, not per
// access.
func (as *AddressSpace) Footprint() FootprintStats {
	f := FootprintStats{Splits: as.splits, Merges: as.merges}
	var b uint64
	for i := range as.regions {
		rs := &as.regions[i]
		f.Extents += len(rs.exts)
		b += uint64(cap(rs.exts)) * uint64(unsafe.Sizeof(extent{}))
		b += uint64(cap(rs.pfns)) * uint64(unsafe.Sizeof(mem.PFN(0)))
		b += uint64(cap(rs.estate)) * uint64(unsafe.Sizeof(EvictKind(0)))
		b += uint64(cap(rs.marks)+cap(rs.hints)) * uint64(unsafe.Sizeof(uint64(0)))
	}
	b += uint64(cap(as.regions)) * uint64(unsafe.Sizeof(regionState{}))
	b += uint64(cap(as.rmap)) * uint64(unsafe.Sizeof(VPN(0)))
	b += uint64(cap(as.starts)+cap(as.ends)) * uint64(unsafe.Sizeof(VPN(0)))
	b += uint64(cap(as.bucket)) * 4
	f.Bytes = b
	return f
}

// findExtent returns the extent containing v, or nil.
func findExtent(exts []extent, v VPN) *extent {
	lo, hi := 0, len(exts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if exts[mid].start <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 {
		if e := &exts[lo-1]; v < e.end() {
			return e
		}
	}
	return nil
}

// extentInsertPos returns the index of the first extent starting after
// v — the insertion position for a run beginning at v.
func extentInsertPos(exts []extent, v VPN) int {
	lo, hi := 0, len(exts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if exts[mid].start <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// canMergeExt reports whether b can be absorbed into a (a immediately
// left of b): the VPN runs must be adjacent, and either both runs are
// evicted with the same state, or both are mapped with consecutive
// frames (which requires a to cover whole frames — a frame-internal
// tail can only sit at the end of a run).
func (as *AddressSpace) canMergeExt(a, b *extent) bool {
	if a.end() != b.start {
		return false
	}
	if a.pfn == mem.NilPFN || b.pfn == mem.NilPFN {
		return a.pfn == mem.NilPFN && b.pfn == mem.NilPFN && a.state == b.state
	}
	if a.pages&(as.framePages-1) != 0 {
		return false
	}
	return b.pfn == a.pfn+mem.PFN(a.pages>>as.frameShift)
}

// insertExtentAt inserts e before index i in the region's list,
// re-merging with either neighbor when they reconverge.
func (as *AddressSpace) insertExtentAt(rs *regionState, i int, e extent) {
	exts := rs.exts
	if i > 0 && as.canMergeExt(&exts[i-1], &e) {
		exts[i-1].pages += e.pages
		as.merges++
		// The grown left neighbor may now also reach the right one.
		if i < len(exts) && as.canMergeExt(&exts[i-1], &exts[i]) {
			exts[i-1].pages += exts[i].pages
			rs.exts = append(exts[:i], exts[i+1:]...)
			as.merges++
		}
		return
	}
	if i < len(exts) && as.canMergeExt(&e, &exts[i]) {
		exts[i].start = e.start
		exts[i].pages += e.pages
		exts[i].pfn = e.pfn
		as.merges++
		return
	}
	rs.exts = append(exts, extent{})
	copy(rs.exts[i+1:], rs.exts[i:])
	rs.exts[i] = e
}

// clearEvictedRange removes any evicted-extent coverage of [lo, hi)
// ahead of a re-map, adjusting the eviction counters; mapped coverage
// in the range panics (double map). Middle cuts split the evicted
// extent, counted as splits like any other divergence.
func (as *AddressSpace) clearEvictedRange(rs *regionState, lo, hi VPN) {
	i := extentInsertPos(rs.exts, lo)
	if i > 0 && rs.exts[i-1].end() > lo {
		i--
	}
	for i < len(rs.exts) && rs.exts[i].start < hi {
		e := &rs.exts[i]
		if e.pfn != mem.NilPFN {
			panic(fmt.Sprintf("pagetable: double map of VPN range [%d,%d)", lo, hi))
		}
		ovLo, ovHi := e.start, e.end()
		if ovLo < lo {
			ovLo = lo
		}
		if ovHi > hi {
			ovHi = hi
		}
		ovPages := uint64(ovHi - ovLo)
		as.evictedByKind[e.state] -= int(ovPages)
		switch {
		case ovLo == e.start && ovHi == e.end():
			rs.exts = append(rs.exts[:i], rs.exts[i+1:]...)
		case ovLo == e.start:
			e.start = ovHi
			e.pages -= ovPages
			i++
		case ovHi == e.end():
			e.pages -= ovPages
			i++
		default:
			right := extent{start: ovHi, pages: uint64(e.end() - ovHi), pfn: mem.NilPFN, state: e.state}
			e.pages = uint64(ovLo - e.start)
			as.splits++
			rs.exts = append(rs.exts, extent{})
			copy(rs.exts[i+2:], rs.exts[i+1:])
			rs.exts[i+1] = right
			i += 2
		}
	}
}

// MapRange installs translations for pages VPNs starting at v onto
// consecutive frames starting at pfn — the huge-page fault path's bulk
// MapPage. In extent mode v must be frame-aligned; the covered VPNs
// must currently have no translation (double maps panic, as in
// MapPage, and so do PFNs reaching PFNLimit), and any eviction records
// in the range are cleared. Dense tables take the per-page path.
func (as *AddressSpace) MapRange(v VPN, pfn mem.PFN, pages uint64) {
	if pages == 0 {
		return
	}
	if !as.ext {
		for o := uint64(0); o < pages; o++ {
			as.MapPage(v+VPN(o), pfn+mem.PFN(o))
		}
		return
	}
	rs := as.regionOf(v)
	if rs == nil || v+VPN(pages) > rs.End() {
		panic(fmt.Sprintf("pagetable: map of VPN range [%d,%d) outside any region", v, v+VPN(pages)))
	}
	if uint64(v)&(as.framePages-1) != 0 {
		panic(fmt.Sprintf("pagetable: unaligned frame map at VPN %d (frame %d pages)", v, as.framePages))
	}
	frames := (pages + as.framePages - 1) >> as.frameShift
	if uint64(pfn)+frames > uint64(PFNLimit) {
		panic(fmt.Sprintf("pagetable: PFNs [%d,%d) reach PFNLimit", pfn, uint64(pfn)+frames))
	}
	as.clearEvictedRange(rs, v, v+VPN(pages))
	as.insertExtentAt(rs, extentInsertPos(rs.exts, v), extent{start: v, pages: pages, pfn: pfn})
	as.growRmap(pfn + mem.PFN(frames) - 1)
	for k := uint64(0); k < frames; k++ {
		as.rmap[pfn+mem.PFN(k)] = v + VPN(k<<as.frameShift)
	}
	as.mapped += int(pages)
}

// removeMappedChunk removes the frame chunk [lo, hi) from the mapped
// extent at index i (which must cover it, with lo on a frame boundary
// of the run), clears its rmap slot, and installs an eviction record
// when kind says so. Returns the chunk's frame PFN.
func (as *AddressSpace) removeMappedChunk(rs *regionState, i int, lo, hi VPN, kind EvictKind) mem.PFN {
	e := &rs.exts[i]
	chunkPFN := e.pfn + mem.PFN(uint64(lo-e.start)>>as.frameShift)
	as.rmap[chunkPFN] = nilVPN
	as.clearSlot(rs, lo)
	chunkPages := uint64(hi - lo)
	left := uint64(lo - e.start)
	right := uint64(e.end() - hi)
	switch {
	case left == 0 && right == 0:
		rs.exts = append(rs.exts[:i], rs.exts[i+1:]...)
	case left == 0:
		e.start = hi
		e.pages = right
		e.pfn = chunkPFN + 1
		as.splits++
	case right == 0:
		e.pages = left
		as.splits++
	default:
		rightExt := extent{start: hi, pages: right, pfn: chunkPFN + 1}
		e.pages = left
		as.splits++
		rs.exts = append(rs.exts, extent{})
		copy(rs.exts[i+2:], rs.exts[i+1:])
		rs.exts[i+1] = rightExt
	}
	as.mapped -= int(chunkPages)
	as.gen++
	if kind != EvictNone {
		as.evictedByKind[kind] += int(chunkPages)
		as.insertExtentAt(rs, extentInsertPos(rs.exts, lo), extent{start: lo, pages: chunkPages, pfn: mem.NilPFN, state: kind})
	}
	return chunkPFN
}

// chunkBounds returns the frame chunk of extent e containing v: the
// VPN span one frame translates as a unit.
func (as *AddressSpace) chunkBounds(e *extent, v VPN) (lo, hi VPN) {
	off := uint64(v-e.start) &^ (as.framePages - 1)
	lo = e.start + VPN(off)
	hi = lo + VPN(as.framePages)
	if hi > e.end() {
		hi = e.end()
	}
	return lo, hi
}

// unmapPageExtent is UnmapPage in extent mode: the frame chunk holding
// v loses its translation with no eviction record.
func (as *AddressSpace) unmapPageExtent(v VPN) (mem.PFN, bool) {
	rs := as.regionOf(v)
	if rs == nil {
		return mem.NilPFN, false
	}
	i := extentInsertPos(rs.exts, v) - 1
	if i < 0 || v >= rs.exts[i].end() || rs.exts[i].pfn == mem.NilPFN {
		return mem.NilPFN, false
	}
	lo, hi := as.chunkBounds(&rs.exts[i], v)
	return as.removeMappedChunk(rs, i, lo, hi, EvictNone), true
}

// unmapPFNExtent is UnmapPFN's extent path: v is the frame's first VPN
// from the reverse map.
func (as *AddressSpace) unmapPFNExtent(pfn mem.PFN, v VPN, kind EvictKind) (VPN, bool) {
	rs := as.regionOf(v)
	i := extentInsertPos(rs.exts, v) - 1
	e := &rs.exts[i]
	lo, hi := as.chunkBounds(e, v)
	as.removeMappedChunk(rs, i, lo, hi, kind)
	return v, true
}

// munmapExtents collects every mapped frame of a dying region, clears
// its reverse-map slots, and unwinds the mapped/evicted/hinted
// accounting. Munmap proper removes the region from the index.
func (as *AddressSpace) munmapExtents(rs *regionState) []mem.PFN {
	for _, w := range rs.hints {
		as.nHinted -= bits.OnesCount64(w)
	}
	var pfns []mem.PFN
	for j := range rs.exts {
		e := &rs.exts[j]
		if e.pfn == mem.NilPFN {
			as.evictedByKind[e.state] -= int(e.pages)
			continue
		}
		frames := (e.pages + as.framePages - 1) >> as.frameShift
		for k := uint64(0); k < frames; k++ {
			pfns = append(pfns, e.pfn+mem.PFN(k))
			as.rmap[e.pfn+mem.PFN(k)] = nilVPN
		}
		as.mapped -= int(e.pages)
	}
	return pfns
}

// translateBatchExtent is TranslateBatchHinted over the extent
// representation: the same bucket-index region resolution as the dense
// path, then a binary search of the region's extent list, with a
// one-extent cache in locals — consecutive accesses into the same run
// (the common case on extent-friendly workloads) cost two compares.
// Zero allocation, like the dense path.
func (as *AddressSpace) translateBatchExtent(vs []VPN, out []mem.PFN) {
	starts, bucket, shift := as.starts, as.bucket, as.shift
	ends, regions := as.ends, as.regions
	fShift := as.frameShift
	// Last mapped extent, cached in locals. A VPN determines its extent
	// globally, so a cache hit skips region resolution too.
	var eStart VPN = 1
	var eEnd VPN
	var ePFN mem.PFN
	for i, v := range vs {
		if v >= eStart && v < eEnd {
			out[i] = ePFN + mem.PFN(uint64(v-eStart)>>fShift)
			continue
		}
		k := uint64(v) >> shift
		if k >= uint64(len(bucket)) {
			out[i] = mem.NilPFN
			continue
		}
		var idx int
		if b := bucket[k]; b < 0 {
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
		exts := regions[idx].exts
		lo, hi := 0, len(exts)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if exts[mid].start <= v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo > 0 {
			if e := &exts[lo-1]; v < e.end() && e.pfn != mem.NilPFN {
				out[i] = e.pfn + mem.PFN(uint64(v-e.start)>>fShift)
				eStart, eEnd, ePFN = e.start, e.end(), e.pfn
				continue
			}
		}
		out[i] = mem.NilPFN
	}
	if as.nHinted == 0 {
		return
	}
	// The hints come from the regions' bitmaps in a second pass, so the
	// loop above stays as lean as on a table without hints. rs caches
	// the last region.
	var rs *regionState
	for i, v := range vs {
		if out[i] == mem.NilPFN {
			continue
		}
		if rs == nil || v < rs.Start || v >= rs.End() {
			lo, hi := 0, len(starts)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if starts[mid] <= v {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			rs = &regions[lo-1] // a mapped v lies in a region
		}
		s := uint64(v-rs.Start) >> fShift
		out[i] |= mem.PFN(rs.hints[s/64]>>(s%64)&1) << 31
	}
}
