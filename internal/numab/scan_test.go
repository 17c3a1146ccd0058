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
// reference walk and the other the run walk.
type scanRig struct {
	store *mem.Store
	stat  *vmstat.NodeStats
	b     *Balancer
}

// newScanRig builds a machine of a few regions whose frames are mapped
// in runs (on either node, some already poisoned), evicted in runs, or
// left as never-populated holes, with the scan cursor placed mid-region.
// The balancer is wired either before the store is populated (it then
// observes every placement) or after (it must adopt the existing PFNs).
func newScanRig(t *testing.T, newAS func() *pagetable.AddressSpace, seed int64) *scanRig {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	topo, err := tier.NewCXLSystem(tier.Config{LocalPages: 1024, CXLPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	as := newAS()
	fp := uint64(1) << as.FrameShift()
	store := mem.NewStore(rng.Intn(64))
	stat := vmstat.NewNodeStats(topo.NumNodes())
	sizes := []int{1, 2, 5, 37, 4096}
	cfg := Config{Enabled: true, ScanSizePages: sizes[rng.Intn(len(sizes))], CXLOnly: rng.Intn(2) == 0}
	var b *Balancer
	wire := func() {
		b = New(cfg, store, topo, nil, stat, nil, as)
		b.SetFramePages(fp)
	}
	late := rng.Intn(2) == 0
	if !late {
		wire()
	}
	// Each page lands on CXL with probability cxlShare/4. At share 0 a
	// CXL-only balancer wired early never grows its bitset, so mapped
	// PFNs lie past its end until they migrate.
	cxlShare := rng.Intn(4)

	types := []mem.PageType{mem.Anon, mem.File, mem.Tmpfs}
	nRegions := 2 + rng.Intn(4)
	var regions []pagetable.Region
	for i := 0; i < nRegions; i++ {
		pages := uint64(1 + rng.Intn(300))
		if fp > 1 {
			// Whole frames plus, sometimes, a partial tail frame.
			pages = uint64(1+rng.Intn(5))*fp - uint64(rng.Intn(2)*rng.Intn(int(fp)))
		}
		r := as.Mmap(pages, types[rng.Intn(len(types))])
		regions = append(regions, r)
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
			span := pages - off
			if span > fp {
				span = fp
			}
			node := mem.NodeID(0)
			if rng.Intn(4) < cxlShare {
				node = 1
			}
			pfn := store.Alloc(r.Type, node)
			as.MapRange(r.Start+pagetable.VPN(off), pfn, span)
			if state == evicted {
				kind := pagetable.EvictSwap
				if rng.Intn(2) == 0 {
					kind = pagetable.EvictFile
				}
				as.UnmapPFN(pfn, kind)
				store.Free(pfn)
				continue
			}
			if rng.Intn(3) == 0 {
				pg := store.Page(pfn)
				pg.Flags = pg.Flags.Set(mem.PGHinted)
			}
		}
	}
	if late {
		wire()
	}
	r := rng.Intn(len(regions))
	b.cursorRegion = r
	b.cursorOffset = pagetable.VPN(uint64(rng.Intn(int(regions[r].Pages))) / fp * fp)
	return &scanRig{store: store, stat: stat, b: b}
}

// TestScanRunWalkMatchesPerVPN holds the run walk, candidate bitset
// included, to the per-VPN reference on random machines over every table
// shape: after each of several consecutive scans the cursors, the
// poisoned-page sets, the per-node scan charges and the returned costs
// must all agree. Between scans some hint faults are consumed through
// the balancer and some pages migrate to the other node through the
// store, the two events besides a birth that make a page a candidate.
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
						for _, rig := range []*scanRig{ref, run} {
							if pg := rig.store.Page(pfn); hint && pg.Flags.Has(mem.PGHinted) {
								rig.b.unhint(pfn, pg)
							}
							if move {
								rig.store.Move(pfn, 1-node)
							}
						}
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
// every candidate bit clear; "cold" sets every bit before each pass, as
// after a mass placement change, so the pass reads every page.
func BenchmarkScan(b *testing.B) {
	for _, tab := range scanTables[:2] {
		for _, cold := range []bool{false, true} {
			name := tab.name + "/settled"
			if cold {
				name = tab.name + "/cold"
			}
			b.Run(name, func(b *testing.B) {
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
				rand.New(rand.NewSource(1)).Shuffle(pages, func(i, j int) { pfns[i], pfns[j] = pfns[j], pfns[i] })
				r := as.Mmap(pages, mem.Anon)
				for i, pfn := range pfns {
					as.MapPage(r.Start+pagetable.VPN(i), pfn)
				}
				bal.scan() // settle: the first pass clears every bit
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if cold {
						for w := range bal.cand {
							bal.cand[w] = ^uint64(0)
						}
					}
					if bal.scan() != 0 {
						b.Fatal("scan marked a page on a fully poisoned machine")
					}
				}
			})
		}
	}
}
