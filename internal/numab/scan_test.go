package numab

import (
	"fmt"
	"math/rand"
	"testing"

	"tppsim/internal/mem"
	"tppsim/internal/pagetable"
	"tppsim/internal/tier"
	"tppsim/internal/vmstat"
)

// scanPerVPN is the reference scan: one Translate per VPN, exactly the
// walk scan replaced. The equivalence test holds scan to it.
func scanPerVPN(b *Balancer) float64 {
	const perPageNs = 150
	numRegions := b.as.NumRegions()
	if numRegions == 0 {
		return 0
	}
	if b.cursorRegion >= numRegions {
		b.cursorRegion = 0
		b.cursorOffset = 0
	}
	marked := 0
	visited := 0
	fp := b.framePages
	totalPages := b.as.TotalPages()
	spent := 0.0
	for marked < b.cfg.ScanSizePages && visited < int(totalPages) {
		r := b.as.RegionAt(b.cursorRegion)
		if b.cursorOffset >= pagetable.VPN(r.Pages) {
			b.cursorRegion = (b.cursorRegion + 1) % numRegions
			b.cursorOffset = 0
			continue
		}
		v := r.Start + b.cursorOffset
		b.cursorOffset += pagetable.VPN(fp)
		visited += int(fp)
		pfn, ok := b.as.Translate(v)
		if !ok {
			continue
		}
		pg := b.store.Page(pfn)
		if b.cfg.CXLOnly && !b.nodeCXL[pg.Node] {
			continue
		}
		if pg.Flags.Has(mem.PGHinted) {
			continue
		}
		pg.Flags = pg.Flags.Set(mem.PGHinted)
		b.stat.Add(pg.Node, vmstat.NumaPagesScanned, fp)
		marked += int(fp)
		spent += perPageNs
	}
	return spent
}

// scanTables names the page-table shapes the scan must handle: the dense
// table, the per-page extent table, and the 2 MB huge-frame extent table.
var scanTables = []struct {
	name string
	new  func() *pagetable.AddressSpace
}{
	{"dense", func() *pagetable.AddressSpace { return pagetable.New(1) }},
	{"extent", func() *pagetable.AddressSpace { return pagetable.NewExtent(1, 0) }},
	{"huge", func() *pagetable.AddressSpace { return pagetable.NewExtent(1, mem.HugeFrameShift) }},
}

// scanRig is a balancer over a randomly populated address space. Two
// rigs built from the same seed are identical, so one can run the
// reference walk and the other the mark walk.
type scanRig struct {
	store *mem.Store
	stat  *vmstat.NodeStats
	as    *pagetable.AddressSpace
	b     *Balancer
	// cxlShare/4 is the chance a populated frame lands on the CXL node.
	cxlShare int
}

// newScanRig builds a machine of a few regions whose frames are mapped
// in runs (on either node, some already poisoned), evicted in runs, or
// left as never-populated holes, with the scan cursor placed mid-region.
// The balancer is wired either before the store is populated or after;
// either way the marks come from the page table's maps, since the store
// reports only moves.
func newScanRig(t *testing.T, newAS func() *pagetable.AddressSpace, seed int64) *scanRig {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	topo, err := tier.NewCXLSystem(tier.Config{LocalPages: 1024, CXLPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	rig := &scanRig{as: newAS(), store: mem.NewStore(rng.Intn(64))}
	rig.stat = vmstat.NewNodeStats(topo.NumNodes())
	sizes := []int{1, 2, 5, 37, 4096}
	cfg := Config{Enabled: true, ScanSizePages: sizes[rng.Intn(len(sizes))], CXLOnly: rng.Intn(2) == 0}
	wire := func() { rig.b = New(cfg, rig.store, topo, nil, rig.stat, nil, rig.as) }
	late := rng.Intn(2) == 0
	if !late {
		wire()
	}
	rig.cxlShare = rng.Intn(4)
	nRegions := 2 + rng.Intn(4)
	var regions []pagetable.Region
	for i := 0; i < nRegions; i++ {
		regions = append(regions, rig.mmap(rng))
	}
	if late {
		wire()
	}
	fp := rig.b.framePages
	r := rng.Intn(len(regions))
	rig.b.cursorRegion = r
	rig.b.cursorOffset = pagetable.VPN(uint64(rng.Intn(int(regions[r].Pages))) / fp * fp)
	return rig
}

// mmap maps a new region of random size and type and populates it.
func (rig *scanRig) mmap(rng *rand.Rand) pagetable.Region {
	fp := uint64(1) << rig.as.FrameShift()
	pages := uint64(1 + rng.Intn(300))
	if fp > 1 {
		// Whole frames plus, sometimes, a partial tail frame.
		pages = uint64(1+rng.Intn(5))*fp - uint64(rng.Intn(2)*rng.Intn(int(fp)))
	}
	types := []mem.PageType{mem.Anon, mem.File, mem.Tmpfs}
	r := rig.as.Mmap(pages, types[rng.Intn(len(types))])
	const (
		hole = iota
		evicted
		mapped
	)
	state := mapped
	for off := uint64(0); off < pages; off += fp {
		if rng.Intn(4) == 0 {
			state = rng.Intn(3)
		}
		if state == hole {
			continue
		}
		span := min(pages-off, fp)
		node := mem.NodeID(0)
		if rng.Intn(4) < rig.cxlShare {
			node = 1
		}
		pfn := rig.store.Alloc(r.Type, node)
		rig.as.MapRange(r.Start+pagetable.VPN(off), pfn, span)
		if state == evicted {
			kind := pagetable.EvictSwap
			if rng.Intn(2) == 0 {
				kind = pagetable.EvictFile
			}
			rig.as.UnmapPFN(pfn, kind)
			rig.store.Free(pfn)
			continue
		}
		if rng.Intn(3) == 0 {
			pg := rig.store.Page(pfn)
			pg.Flags = pg.Flags.Set(mem.PGHinted)
		}
	}
	return r
}

// refault evicts the frame mapped at v, the first VPN of a frame slot
// in region i, and faults the slot back in on a fresh PFN on node.
func (rig *scanRig) refault(i int, v pagetable.VPN, node mem.NodeID) {
	r := rig.as.RegionAt(i)
	old, _ := rig.as.Translate(v)
	fresh := rig.store.Alloc(r.Type, node)
	rig.as.UnmapPFN(old, pagetable.EvictSwap)
	rig.store.Free(old)
	rig.as.MapRange(v, fresh, min(uint64(r.End()-v), rig.b.framePages))
}

// remap unmaps region i, freeing its pages, and maps a new region in
// its place at the end of the address space.
func (rig *scanRig) remap(i int, rng *rand.Rand) {
	for _, pfn := range rig.as.Munmap(rig.as.RegionAt(i)) {
		rig.store.Free(pfn)
	}
	rig.mmap(rng)
}

// TestScanRunWalkMatchesPerVPN holds the mark walk to the per-VPN
// reference on random machines over every table shape: after each of
// several consecutive scans the cursors, the poisoned-page sets, the
// per-node scan charges and the returned costs must all agree, and the
// scan marks must keep their promise. Between scans some hint faults
// are consumed through the balancer, some pages migrate to the other
// node through the store, some frames are evicted and refaulted onto
// fresh PFNs at the same VPN, and sometimes a whole region is unmapped
// and a new one mapped: every event that can put a candidate at a slot.
func TestScanRunWalkMatchesPerVPN(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 15
	}
	for _, tab := range scanTables {
		t.Run(tab.name, func(t *testing.T) {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				ref := newScanRig(t, tab.new, seed)
				run := newScanRig(t, tab.new, seed)
				rigs := []*scanRig{ref, run}
				rng := rand.New(rand.NewSource(-seed))
				for s := 0; s < 6; s++ {
					want := scanPerVPN(ref.b)
					got := run.b.scan()
					where := fmt.Sprintf("seed %d scan %d (size %d, cxlOnly %v)", seed, s,
						ref.b.cfg.ScanSizePages, ref.b.cfg.CXLOnly)
					if got != want {
						t.Fatalf("%s: cost %v, want %v", where, got, want)
					}
					if run.b.cursorRegion != ref.b.cursorRegion || run.b.cursorOffset != ref.b.cursorOffset {
						t.Fatalf("%s: cursor %d/%d, want %d/%d", where,
							run.b.cursorRegion, run.b.cursorOffset, ref.b.cursorRegion, ref.b.cursorOffset)
					}
					for id := mem.NodeID(0); int(id) < ref.stat.NumNodes(); id++ {
						w := ref.stat.GetNode(id, vmstat.NumaPagesScanned)
						if g := run.stat.GetNode(id, vmstat.NumaPagesScanned); g != w {
							t.Fatalf("%s: node %d scanned %d, want %d", where, id, g, w)
						}
					}
					for pfn := mem.PFN(0); int(pfn) < ref.store.Len(); pfn++ {
						w := ref.store.Page(pfn).Flags.Has(mem.PGHinted)
						if g := run.store.Page(pfn).Flags.Has(mem.PGHinted); g != w {
							t.Fatalf("%s: PFN %d hinted %v, want %v", where, pfn, g, w)
						}
					}
					if err := run.b.CheckCandidates(); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					// Consume some hint faults and migrate some pages so
					// the next scan has work.
					for pfn := mem.PFN(0); int(pfn) < ref.store.Len(); pfn++ {
						node := ref.store.Page(pfn).Node
						if node == mem.NilNode {
							continue
						}
						hint, move := rng.Intn(3) == 0, rng.Intn(8) == 0
						for _, rig := range rigs {
							if pg := rig.store.Page(pfn); hint && pg.Flags.Has(mem.PGHinted) {
								v, _ := rig.as.VPNOf(pfn)
								rig.b.unhint(v, pg)
							}
							if move {
								rig.store.Move(pfn, 1-node)
							}
						}
					}
					// Evict and refault some frames at the same VPN.
					fp := ref.b.framePages
					for i := 0; i < ref.as.NumRegions(); i++ {
						r := ref.as.RegionAt(i)
						for v := r.Start; v < r.End(); v += pagetable.VPN(fp) {
							if _, ok := ref.as.Translate(v); !ok || rng.Intn(6) != 0 {
								continue
							}
							node := mem.NodeID(rng.Intn(2))
							for _, rig := range rigs {
								rig.refault(i, v, node)
							}
						}
					}
					// Sometimes replace a whole region.
					if rng.Intn(2) == 0 {
						i, sub := rng.Intn(ref.as.NumRegions()), rng.Int63()
						for _, rig := range rigs {
							rig.remap(i, rand.New(rand.NewSource(sub)))
						}
					}
					if err := run.b.CheckCandidates(); err != nil {
						t.Fatalf("%s, after churn: %v", where, err)
					}
				}
			}
		})
	}
}

// BenchmarkScan measures one full scan pass in the warm worst case: 64K
// pages, four fifths on CXL, mapped in shuffled PFN order (as churn
// leaves them) and all already poisoned, so a CXL-only scan walks the
// whole address space and marks nothing. "settled" is the steady state,
// every scan mark clear; "sparse" marks a scattered 3% of the slots
// before each pass, the share of pages churn-large places or faults
// between scans; "cold" marks every slot, as after a mass placement
// change, so the pass reads every page. Marks are set through MarkPFN
// with the timer stopped.
func BenchmarkScan(b *testing.B) {
	for _, tab := range scanTables[:2] {
		for _, c := range []struct {
			name  string
			share float64
		}{{"settled", 0}, {"sparse", 0.03}, {"cold", 1}} {
			b.Run(tab.name+"/"+c.name, func(b *testing.B) {
				const pages = 1 << 16
				topo, err := tier.NewCXLSystem(tier.Config{LocalPages: pages / 5, CXLPages: pages})
				if err != nil {
					b.Fatal(err)
				}
				store := mem.NewStore(pages)
				stat := vmstat.NewNodeStats(topo.NumNodes())
				as := tab.new()
				bal := New(Config{Enabled: true, CXLOnly: true}, store, topo, nil, stat, nil, as)
				pfns := make([]mem.PFN, pages)
				for i := range pfns {
					node := mem.NodeID(1)
					if i < pages/5 {
						node = 0
					}
					pfns[i] = store.Alloc(mem.Anon, node)
					if node == 1 {
						pg := store.Page(pfns[i])
						pg.Flags = pg.Flags.Set(mem.PGHinted)
					}
				}
				rng := rand.New(rand.NewSource(1))
				rng.Shuffle(pages, func(i, j int) { pfns[i], pfns[j] = pfns[j], pfns[i] })
				r := as.Mmap(pages, mem.Anon)
				for i, pfn := range pfns {
					as.MapPage(r.Start+pagetable.VPN(i), pfn)
				}
				// pfns is in VA order, so a random prefix of a
				// permutation picks scattered slots.
				var remark []mem.PFN
				for _, i := range rng.Perm(pages)[:int(c.share*pages)] {
					remark = append(remark, pfns[i])
				}
				bal.scan() // settle: the first pass clears every mark
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if len(remark) > 0 {
						b.StopTimer()
						for _, pfn := range remark {
							as.MarkPFN(pfn)
						}
						b.StartTimer()
					}
					if bal.scan() != 0 {
						b.Fatal("scan marked a page on a fully poisoned machine")
					}
				}
			})
		}
	}
}
