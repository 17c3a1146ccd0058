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

// scanPerVPN is the reference scan: one Translate and one page read per
// VPN, reading and setting hints through the page table and ignoring
// the scan marks. The equivalence test holds scan to it.
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
		pfn, hinted, ok := b.as.TranslateHinted(v)
		if !ok {
			continue
		}
		pg := b.store.Page(pfn)
		if b.cfg.CXLOnly && b.topo.Node(pg.Node).Kind != mem.KindCXL {
			continue
		}
		if hinted {
			continue
		}
		poison(b, b.cursorRegion, v)
		b.stat.Add(pg.Node, vmstat.NumaPagesScanned, fp)
		marked += int(fp)
		spent += perPageNs
	}
	return spent
}

// poison hints the slot holding v in region i and clears its scan
// marks, as the scan does to a slot it consumes.
func poison(b *Balancer, i int, v pagetable.VPN) {
	s := uint64(v-b.as.RegionAt(i).Start) >> b.as.FrameShift()
	b.as.Poison(i, []pagetable.MarkWord{{W: s / 64, Slots: 1 << (s % 64)}})
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
// Every map is reported to the balancer, as the demand fault path does.
func newScanRig(t *testing.T, newAS func() *pagetable.AddressSpace, seed int64) *scanRig {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	topo, err := tier.Spec{Nodes: []tier.NodeSpec{
		{Kind: mem.KindLocal, Pages: 1024},
		{Kind: mem.KindCXL, Pages: 1024},
	}}.Build(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rig := &scanRig{as: newAS(), store: mem.NewStore(rng.Intn(64))}
	rig.stat = vmstat.NewNodeStats(topo.NumNodes())
	sizes := []int{1, 2, 5, 37, 4096}
	cfg := Config{Enabled: true, ScanSizePages: sizes[rng.Intn(len(sizes))], CXLOnly: rng.Intn(2) == 0}
	rig.b = New(cfg, rig.store, topo, nil, rig.stat, nil, rig.as)
	rig.cxlShare = rng.Intn(4)
	nRegions := 2 + rng.Intn(4)
	var regions []pagetable.Region
	for i := 0; i < nRegions; i++ {
		regions = append(regions, rig.mmap(rng))
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
		v := r.Start + pagetable.VPN(off)
		rig.as.MapRange(v, pfn, span)
		rig.b.Mapped(v, node)
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
			poison(rig.b, rig.as.NumRegions()-1, v)
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
	rig.b.Mapped(v, node)
}

// remap unmaps region i, freeing its pages, and maps a new region in
// its place at the end of the address space.
func (rig *scanRig) remap(i int, rng *rand.Rand) {
	for _, pfn := range rig.as.Munmap(rig.as.RegionAt(i), nil) {
		rig.store.Free(pfn)
	}
	rig.mmap(rng)
}

// TestScanRunWalkMatchesPerVPN holds the mark walk to the per-VPN
// reference on random machines over every table shape: after each of
// several consecutive scans the cursors, the hinted slots, the per-node
// scan charges and the returned costs must all agree, and the scan
// marks must stay exact on both rigs. Between scans some hint faults
// are consumed, some pages migrate to the other node through the store,
// some frames are evicted and refaulted onto fresh PFNs at the same VPN,
// and sometimes a whole region is unmapped and a new one mapped: every
// event that can put a candidate at a slot or take one away.
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
					for i := 0; i < ref.as.NumRegions(); i++ {
						r := ref.as.RegionAt(i)
						for v := r.Start; v < r.End(); v++ {
							_, g, _ := run.as.TranslateHinted(v)
							if _, w, _ := ref.as.TranslateHinted(v); g != w {
								t.Fatalf("%s: VPN %d hinted %v, want %v", where, v, g, w)
							}
						}
					}
					for _, rig := range rigs {
						if err := rig.b.CheckCandidates(); err != nil {
							t.Fatalf("%s: %v", where, err)
						}
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
							if v, ok := rig.as.VPNOf(pfn); ok && hint {
								rig.as.Unhint(v, rig.b.lane[node])
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
					for _, rig := range rigs {
						if err := rig.b.CheckCandidates(); err != nil {
							t.Fatalf("%s, after churn: %v", where, err)
						}
					}
				}
			}
		})
	}
}

// TestScanPoisonsBeyondOneBatch runs one pass over a region whose
// candidates fill more mark words than one Poison batch holds, two
// full batches and a partial one: every candidate must be poisoned and
// charged once, and the marks must stay exact.
func TestScanPoisonsBeyondOneBatch(t *testing.T) {
	for _, tab := range scanTables[:2] {
		t.Run(tab.name, func(t *testing.T) {
			const pages = 2*poisonBatch*64 + 100
			topo, err := tier.Spec{Nodes: []tier.NodeSpec{
				{Kind: mem.KindLocal, Pages: 64},
				{Kind: mem.KindCXL, Pages: pages},
			}}.Build(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			store := mem.NewStore(pages)
			stat := vmstat.NewNodeStats(topo.NumNodes())
			as := tab.new()
			b := New(Config{Enabled: true, CXLOnly: true, ScanSizePages: pages}, store, topo, nil, stat, nil, as)
			r := as.Mmap(pages, mem.Anon)
			for i := 0; i < pages; i++ {
				v := r.Start + pagetable.VPN(i)
				as.MapPage(v, store.Alloc(mem.Anon, 1))
				b.Mapped(v, 1)
			}
			if got := b.scan(); got != 150*pages {
				t.Fatalf("scan cost %v, want %v", got, 150*pages)
			}
			if n := as.HintedSlots(); n != pages {
				t.Fatalf("%d hinted slots, want %d", n, pages)
			}
			if n := stat.GetNode(1, vmstat.NumaPagesScanned); n != pages {
				t.Fatalf("node 1 scanned %d pages, want %d", n, pages)
			}
			if err := b.CheckCandidates(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// BenchmarkScan measures one full scan pass over 64K pages, four fifths
// on CXL, mapped in shuffled PFN order (as churn leaves them), under a
// CXL-only balancer whose window covers the whole pass. "settled" is the
// steady state: every CXL slot already hinted, every scan mark clear, so
// the pass walks the whole address space and poisons nothing. "sparse"
// gives a scattered 3% of the CXL slots a hint fault before each pass,
// the share of pages churn-large places or faults between scans, and
// the pass poisons them again; "cold" unhints every CXL slot, as after
// a mass placement change, so the pass poisons them all. The hint
// faults are taken with the timer stopped.
func BenchmarkScan(b *testing.B) {
	for _, tab := range scanTables[:2] {
		for _, c := range []struct {
			name  string
			share float64
		}{{"settled", 0}, {"sparse", 0.03}, {"cold", 1}} {
			b.Run(tab.name+"/"+c.name, func(b *testing.B) {
				const pages = 1 << 16
				topo, err := tier.Spec{Nodes: []tier.NodeSpec{
					{Kind: mem.KindLocal, Pages: pages / 5},
					{Kind: mem.KindCXL, Pages: pages},
				}}.Build(0, 0)
				if err != nil {
					b.Fatal(err)
				}
				store := mem.NewStore(pages)
				stat := vmstat.NewNodeStats(topo.NumNodes())
				as := tab.new()
				bal := New(Config{Enabled: true, CXLOnly: true, ScanSizePages: pages}, store, topo, nil, stat, nil, as)
				pfns := make([]mem.PFN, pages)
				for i := range pfns {
					node := mem.NodeID(1)
					if i < pages/5 {
						node = 0
					}
					pfns[i] = store.Alloc(mem.Anon, node)
				}
				rng := rand.New(rand.NewSource(1))
				rng.Shuffle(pages, func(i, j int) { pfns[i], pfns[j] = pfns[j], pfns[i] })
				r := as.Mmap(pages, mem.Anon)
				var cxl []pagetable.VPN
				for i, pfn := range pfns {
					v := r.Start + pagetable.VPN(i)
					node := store.Page(pfn).Node
					as.MapPage(v, pfn)
					bal.Mapped(v, node)
					if node == 1 {
						cxl = append(cxl, v)
					}
				}
				// cxl is in VA order, so a random prefix of a
				// permutation picks scattered slots.
				var fault []pagetable.VPN
				for _, i := range rng.Perm(len(cxl))[:int(c.share*float64(len(cxl)))] {
					fault = append(fault, cxl[i])
				}
				bal.scan() // settle: the first pass poisons every CXL slot
				want := 150 * float64(len(fault))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if len(fault) > 0 {
						b.StopTimer()
						for _, v := range fault {
							as.Unhint(v, bal.lane[1])
						}
						b.StartTimer()
					}
					if got := bal.scan(); got != want {
						b.Fatalf("scan cost %v, want %v", got, want)
					}
				}
			})
		}
	}
}
