// Package numab implements NUMA Balancing (AutoNUMA) and TPP's
// modifications to it (§5.3 of the paper). The classic mechanism
// periodically unmaps a window of a process's memory (the paper's default
// 256 MB); the next touch of an unmapped page raises a *NUMA hint fault*,
// and a page faulted from a remote node is migrated toward the faulting
// CPU ("promotion"). Promotion is topology-aware: a hint-faulted page on
// any non-CPU tier climbs one tier toward the CPU (the least-pressured
// node of the next tier up), so on multi-hop machines a page trapped on
// the far expander reaches local DRAM in steps.
//
// TPP changes three things, each independently switchable here for the
// ablation experiments:
//
//   - CXLOnly: sample only CXL nodes. Hot pages on the local node never
//     need promotion, so sampling them is pure hint-fault overhead.
//   - ActiveLRUFilter: promote a hint-faulted page only if it is on the
//     active LRU list; a page found on the inactive list is instead
//     marked accessed and moved to the active list (hysteresis), so it
//     is promoted on its *next* hint fault if still hot. This kills the
//     promotion ping-pong of opportunistic promotion.
//   - IgnoreAllocWatermark: promotion bypasses the allocation watermark
//     on the target node (pressure from promotions then drives more
//     demotion of colder local pages).
//
// The poisoning lives in the page table, where the kernel's
// change_prot_numa keeps it: the scan sets frame slots' hints
// (pagetable.AddressSpace.Poison) and the access path learns the hint
// from the translation, so neither reads the page store. The scan
// samples only some nodes (the CXL nodes under CXLOnly), and the
// balancer keeps one VA-ordered scan-mark lane per sampled node in the
// page table, exact at all times: a slot's bit is set in a node's lane
// exactly when the slot is mapped, its page sits on that node, and its
// hint is clear. The balancer keeps them so through every transition:
//
//   - a demand fault maps a page unhinted (Mapped sets its node's mark);
//   - an unmap clears the slot's hint and marks (the page table does);
//   - a move to another node (the store's move observer) moves an
//     unhinted slot's mark to the new node's lane;
//   - a hint fault clears the hint and sets the mark again;
//   - the scan hints the slots it consumes and clears their marks.
//
// The scan therefore walks the OR of the lanes from its cursor, 64
// slots per word, and consumes set bits with word operations: a settled
// pass costs one word load per lane per 64 slots, a pass reads no page
// and no translation and writes only the hints of the slots it poisons,
// and the per-node scan counters are popcounts. The walk is pinned
// against the per-VPN walk by a randomized equivalence test, and the
// marks' exactness by a per-tick check on whole machines. A disabled
// balancer tracks no hints and the page table carries no bitmaps.
package numab

import (
	"fmt"
	"math/bits"

	"tppsim/internal/lru"
	"tppsim/internal/mem"
	"tppsim/internal/migrate"
	"tppsim/internal/pagetable"
	"tppsim/internal/tier"
	"tppsim/internal/vmstat"
)

// Config tunes the balancer.
type Config struct {
	// Enabled turns the whole mechanism on; default Linux without NUMA
	// balancing runs with this false.
	Enabled bool
	// ScanPeriodTicks is how many simulator ticks between sampling scans.
	// Default 20 (twenty simulated seconds).
	ScanPeriodTicks uint64
	// ScanSizePages is the number of mapped pages unmapped per scan (the
	// kernel's 256 MB window, scaled to the simulated machine).
	// Default 4096.
	ScanSizePages int
	// CXLOnly restricts sampling to CXL nodes (TPP).
	CXLOnly bool
	// ActiveLRUFilter enables TPP's active-list promotion filter.
	ActiveLRUFilter bool
	// IgnoreAllocWatermark lets promotions bypass the allocation
	// watermark, requiring only that the target stay above min (TPP).
	IgnoreAllocWatermark bool
	// HintFaultNs is the minor-fault cost charged to the faulting access.
	// Default 1500 ns.
	HintFaultNs float64
	// PromotionGate, when non-nil, is consulted with the selected
	// promotion target before each attempt; returning false blocks it
	// (counted as an isolate failure). The AutoTiering baseline uses
	// this for its per-CPU-node fixed-size promotion buffers (§6.3).
	PromotionGate func(target mem.NodeID) bool
	// OnPromoted, when non-nil, is invoked with the target node after
	// each successful promotion (AutoTiering consumes a buffer slot on
	// that node).
	OnPromoted func(target mem.NodeID)
}

func (c Config) withDefaults() Config {
	if c.ScanPeriodTicks == 0 {
		c.ScanPeriodTicks = 20
	}
	if c.ScanSizePages == 0 {
		c.ScanSizePages = 4096
	}
	if c.HintFaultNs == 0 {
		c.HintFaultNs = 1500
	}
	return c
}

// Balancer is the per-machine NUMA-balancing task.
type Balancer struct {
	cfg    Config
	store  *mem.Store
	topo   *tier.Topology
	vecs   []*lru.Vec
	stat   *vmstat.NodeStats
	engine *migrate.Engine
	as     *pagetable.AddressSpace

	// nodeTop caches per-node "is on the CPU tier" (tier 0), the
	// promotability cut-off — on multi-hop machines a page anywhere below
	// the CPU tier is a promotion candidate toward the next tier up.
	nodeTop []bool
	// lane maps a node to its scan-mark lane (-1: not sampled, and every
	// node when the balancer is disabled); laneNode maps a lane back.
	lane     []int
	laneNode []mem.NodeID

	// VA-order scan cursor (the kernel walks mm->mmap sequentially and
	// wraps).
	cursorRegion int
	cursorOffset pagetable.VPN
	sinceScan    uint64

	// scanned counts the candidates the scan consumed per lane.
	scanned []uint64

	// framePages is the sampling stride, the page table's frame size:
	// 1 normally, mem.HugeFramePages in huge-page mode, where one
	// poisoned PMD entry covers a whole 2 MB frame and the next touch
	// anywhere in it raises the hint fault.
	framePages uint64
}

// poisonBatch is how many consumed mark words the scan hands to
// pagetable.AddressSpace.Poison at once: enough for many PTE writes in
// flight, few enough to stay in L1 (4 KB).
const poisonBatch = 256

// New wires a balancer over the machine. An enabled balancer turns on
// the address space's hint tracking, with one lane per sampled node, so
// it must be built before the first Mmap; it also becomes the store's
// move observer.
func New(cfg Config, store *mem.Store, topo *tier.Topology, vecs []*lru.Vec,
	stat *vmstat.NodeStats, engine *migrate.Engine, as *pagetable.AddressSpace) *Balancer {
	b := &Balancer{cfg: cfg.withDefaults(), store: store, topo: topo, vecs: vecs, stat: stat, engine: engine, as: as,
		nodeTop: make([]bool, topo.NumNodes()), lane: make([]int, topo.NumNodes()),
		framePages: uint64(1) << as.FrameShift()}
	for i := range b.lane {
		id := mem.NodeID(i)
		b.nodeTop[i] = topo.TierOf(id) == 0
		b.lane[i] = -1
		if b.cfg.Enabled && (!b.cfg.CXLOnly || topo.Node(id).Kind == mem.KindCXL) {
			b.lane[i] = len(b.laneNode)
			b.laneNode = append(b.laneNode, id)
		}
	}
	b.scanned = make([]uint64, len(b.laneNode))
	if b.cfg.Enabled {
		as.TrackHints(len(b.laneNode))
		store.SetMoveObserver(b.moved)
	}
	return b
}

// Mapped reports a page just mapped at v on node, unhinted: the demand
// fault path calls it after every map, and it marks the slot when the
// scan samples node.
func (b *Balancer) Mapped(v pagetable.VPN, node mem.NodeID) {
	if l := b.lane[node]; l >= 0 {
		b.as.PlaceMark(v, l)
	}
}

// moved is the store's move observer: an unhinted page's mark follows
// it to its new node's lane, or clears when the scan does not sample
// that node. A page mapped nowhere has no slot.
func (b *Balancer) moved(pfn mem.PFN, node mem.NodeID) {
	if v, ok := b.as.VPNOf(pfn); ok {
		b.as.PlaceMark(v, b.lane[node])
	}
}

// CheckCandidates verifies that the scan marks are exact over every
// frame slot: a mapped, unhinted slot whose page sits on a sampled node
// has that node's mark and no other, and every other slot, mapped or
// not, has none. The page table's hinted-slot count must equal the
// hinted mapped slots, so no unmapped slot counts as hinted. A disabled
// balancer tracks no hints and always passes.
func (b *Balancer) CheckCandidates() error {
	if !b.cfg.Enabled {
		return nil
	}
	shift, lanes := b.as.FrameShift(), uint64(len(b.laneNode))
	nHinted := 0
	for i := 0; i < b.as.NumRegions(); i++ {
		r := b.as.RegionAt(i)
		marks := b.as.ScanMarks(i)
		for s := uint64(0); s < (r.Pages+b.framePages-1)>>shift; s++ {
			v := r.Start + pagetable.VPN(s<<shift)
			bit := uint64(1) << (s % 64)
			pfn, hinted, ok := b.as.TranslateHinted(v)
			var got, want uint64 // lane l's mark as bit l
			for l := uint64(0); l < lanes; l++ {
				if marks[s/64*lanes+l]&bit != 0 {
					got |= 1 << l
				}
			}
			if !ok {
				if got != 0 {
					return fmt.Errorf("numab: unmapped VPN %d has scan marks %#b", v, got)
				}
				continue
			}
			node := b.store.Page(pfn).Node
			if l := b.lane[node]; l >= 0 && !hinted {
				want = 1 << l
			}
			if hinted {
				nHinted++
			}
			if got != want {
				return fmt.Errorf("numab: VPN %d -> PFN %d on node %d (hinted %v) has scan marks %#b, want %#b",
					v, pfn, node, hinted, got, want)
			}
		}
	}
	if n := b.as.HintedSlots(); n != nHinted {
		return fmt.Errorf("numab: the page table counts %d hinted slots, the walk found %d", n, nHinted)
	}
	return nil
}

// Config returns the balancer configuration.
func (b *Balancer) Config() Config { return b.cfg }

// Tick advances the scan clock; on period boundaries it runs one sampling
// scan. Returns the background CPU consumed.
func (b *Balancer) Tick() float64 {
	if !b.cfg.Enabled {
		return 0
	}
	b.sinceScan++
	if b.sinceScan < b.cfg.ScanPeriodTicks {
		return 0
	}
	b.sinceScan = 0
	return b.scan()
}

// scan walks the address space in VA order from the cursor, poisoning up
// to ScanSizePages in-scope mapped pages (setting their slots' hint
// bits, the simulator's PTE present-bit clearing).
//
// The scan marks are exact, so the OR of the lanes' words is the set of
// slots a Translate-per-VPN walk would poison, and the walk consumes it
// a word of 64 frame slots at a time: it counts each lane's candidates
// for its node's numa_pages_scanned and hands the word to Poison (in
// batches), which hints the candidates and clears their marks. Both bounds are applied
// per slot, as in the per-VPN walk: the visited bound clamps the slots
// admitted, and in the word holding the page that reaches ScanSizePages
// the walk consumes the candidates up to that one and stops right after
// it. So it poisons, charges and leaves the cursor exactly as that walk
// would.
func (b *Balancer) scan() float64 {
	const perPageNs = 150 // PTE walk + unmap cost per sampled page
	// poison collects the words consumed in the current region for
	// Poison, a batch at a time: a Poison call per word would space the
	// PTE writes out with the walk's own work, so few of their cache
	// misses would overlap.
	var poison [poisonBatch]pagetable.MarkWord
	nPoison := 0
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
	poisoned := 0
	// Bound the walk to one full pass over the address space per scan.
	// In huge-page mode the cursor strides one frame per step: poisoning
	// a PMD-mapped THP is one PTE-level operation covering the whole
	// frame, so ScanSizePages (in base pages) covers 512x the VA per
	// poison and the hint-fault sampling runs at huge granularity.
	fp, shift := b.framePages, b.as.FrameShift()
	limit := b.cfg.ScanSizePages
	total := int(b.as.TotalPages())
	lanes := uint64(len(b.laneNode))
	scanned := b.scanned // candidates consumed per lane
	for marked < limit && visited < total {
		r := b.as.RegionAt(b.cursorRegion)
		slots := (r.Pages + fp - 1) >> shift
		first := uint64(b.cursorOffset) >> shift
		if first >= slots {
			b.cursorRegion = (b.cursorRegion + 1) % numRegions
			b.cursorOffset = 0
			continue
		}
		// The visited bound admits the next ceil((total-visited)/fp) slots.
		end := min(slots, first+uint64(total-visited+int(fp)-1)>>shift)
		marks := b.as.ScanMarks(b.cursorRegion)
		// The last word holds slot end-1; lastMask keeps its slots < end.
		lastW, lastMask := (end-1)/64, ^uint64(0)>>(63-(end-1)%64)
		s := end // where the walk stops, unless it reaches ScanSizePages
		// j walks the lane words; a zero one holds no candidate, so the
		// inner loop passes over a settled range a load per word.
		for j, endJ := first/64*lanes, (lastW+1)*lanes; ; {
			for j < endJ && marks[j] == 0 {
				j++
			}
			if j == endJ {
				break
			}
			w := j
			if lanes > 1 {
				w /= lanes
			}
			j = (w + 1) * lanes
			lw := marks[w*lanes : j]
			var word uint64
			for _, m := range lw {
				word |= m
			}
			if w == first/64 {
				word &^= 1<<(first%64) - 1
			}
			if w == lastW {
				word &= lastMask
			}
			if word == 0 {
				continue
			}
			n := bits.OnesCount64(word)
			if need := (limit - marked + int(fp) - 1) >> shift; n >= need {
				// The need-th candidate reaches ScanSizePages: keep the
				// candidates up to it and stop right after it.
				k := word
				for range need - 1 {
					k &= k - 1
				}
				stop := uint64(bits.TrailingZeros64(k))
				word &= ^uint64(0) >> (63 - stop)
				s, n = w*64+stop+1, need
			}
			for l, m := range lw {
				scanned[l] += uint64(bits.OnesCount64(m & word))
			}
			if nPoison == len(poison) {
				b.as.Poison(b.cursorRegion, poison[:nPoison])
				nPoison = 0
			}
			poison[nPoison] = pagetable.MarkWord{W: w, Slots: word}
			nPoison++
			marked += n * int(fp)
			poisoned += n
			if marked >= limit {
				break
			}
		}
		b.as.Poison(b.cursorRegion, poison[:nPoison])
		nPoison = 0
		visited += int(s-first) * int(fp)
		b.cursorOffset = pagetable.VPN(s << shift)
	}
	for l, c := range scanned {
		if c != 0 {
			b.stat.Add(b.laneNode[l], vmstat.NumaPagesScanned, c*fp)
			scanned[l] = 0
		}
	}
	// An integer count of 150 ns is exact in float64, as the per-page
	// sum it replaces was.
	return perPageNs * float64(poisoned)
}

// AccessOutcome describes what happened on one memory access from the
// balancer's point of view.
type AccessOutcome struct {
	// HintFault is true when the access hit a poisoned PTE; LatencyNs
	// then carries the minor-fault cost.
	HintFault bool
	// Promoted is true when the access triggered a successful promotion.
	Promoted bool
	// LatencyNs is the extra latency charged to this access (fault
	// service plus any synchronous migration wait).
	LatencyNs float64
}

// OnAccess processes one CPU access to v, mapped to pfn; pg must be
// pfn's page (the caller already has it, so the hot path avoids a
// second store lookup). Only an access through a hinted slot takes a
// hint fault, which clears the hint, so a later access to the same slot
// in the same batch does not fault again. All simulated CPUs live on
// local nodes, so any access to a CXL-resident page is a remote access.
func (b *Balancer) OnAccess(v pagetable.VPN, pfn mem.PFN, pg *mem.Page) AccessOutcome {
	if !b.cfg.Enabled || !b.as.Unhint(v, b.lane[pg.Node]) {
		return AccessOutcome{}
	}
	out := AccessOutcome{HintFault: true, LatencyNs: b.cfg.HintFaultNs}
	b.stat.Inc(pg.Node, vmstat.NumaHintFaults)

	if b.nodeTop[pg.Node] {
		// CPU-tier fault: nothing to promote.
		b.stat.Inc(pg.Node, vmstat.NumaHintFaultsLocal)
		return out
	}
	b.stat.Inc(pg.Node, vmstat.PgpromoteSampled)

	// TPP's apt identification of trapped hot pages (§5.3).
	if b.cfg.ActiveLRUFilter && !pg.Flags.Has(mem.PGActive) {
		// Inactive page: not promoted now; activate so a subsequent hint
		// fault finds it hot ( 2 in Fig. 13).
		b.vecs[pg.Node].ForceActivate(pfn)
		return out
	}
	b.stat.Inc(pg.Node, vmstat.PgpromoteCandidate)

	// One hop toward the CPU, preferring the page's home socket when the
	// tier above contains it (multi-socket machines; elsewhere this is
	// exactly the least-pressured node of the next tier up — §5.3's
	// "local node with the lowest memory pressure" on the 2-node box,
	// the tier-by-tier climb on multi-hop machines). The target is
	// resolved before the gate so a per-node gate (AutoTiering's
	// per-socket buffers) knows which buffer the promotion would consume.
	target := b.topo.PromotionTargetToward(pg.Home, pg.Node)
	if target == mem.NilNode {
		b.stat.Inc(pg.Node, vmstat.PromoteFailGlobal)
		return out
	}
	if b.cfg.PromotionGate != nil && !b.cfg.PromotionGate(target) {
		b.stat.Inc(pg.Node, vmstat.PromoteFailIsolate)
		return out
	}
	if b.topo.Degraded(target) {
		// Fault plane: the target sits in a latency-degradation window;
		// promoting onto a device currently slower than advertised would
		// pay migration cost for no gain. Back off until it recovers.
		b.stat.Inc(pg.Node, vmstat.PromoteFailLowMem)
		return out
	}
	tn := b.topo.Node(target)
	if b.cfg.IgnoreAllocWatermark {
		// §5.3: "we ignore the allocation watermark checking for the
		// target local node" — only the emergency reserve is off-limits
		// (enforced by the engine's watermark guard).
		if tn.Free() <= tn.WM.Min {
			b.stat.Inc(pg.Node, vmstat.PromoteFailLowMem)
			return out
		}
	} else if !tn.AllocOK() {
		// Classic NUMA balancing refuses when the node is low.
		b.stat.Inc(pg.Node, vmstat.PromoteFailLowMem)
		return out
	}

	cost, err := b.engine.Migrate(pfn, target, migrate.Promotion)
	if err != nil {
		// Engine counted the failure reason.
		return out
	}
	out.Promoted = true
	out.LatencyNs += cost
	if b.cfg.OnPromoted != nil {
		b.cfg.OnPromoted(target)
	}
	return out
}
