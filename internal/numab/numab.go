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
// The sampling scan is the balancer's only host-side loop that grows
// with the address space: once warm, every cold CXL page is already
// poisoned, so a scan walks a full pass to find the few pages to mark.
// It walks the page table's scan marks (pagetable.AddressSpace.ScanMarks),
// one bit per frame slot in VA order, where a clear mark promises the
// page at the slot is already poisoned or sits on a node the scan does
// not sample. The page table marks every slot it maps; the balancer,
// as the store's move observer, marks a page moved onto a sampled node,
// and a hint fault marks its page again. The scan tests 64 slots
// per word, skips zero words without translating them, reads a nonzero
// word's marked span with TranslateRun, visits only its set bits, and
// clears them. A settled pass thus costs one word load per 64 slots, and
// a pass reads the page store only for pages placed or faulted since the
// last pass. The walk is pinned against the per-VPN walk by a randomized
// equivalence test, and the marks' promise by a per-tick invariant
// check on whole machines.
package numab

import (
	"fmt"
	"math/bits"

	"tppsim/internal/lru"
	"tppsim/internal/mem"
	"tppsim/internal/migrate"
	"tppsim/internal/pagetable"
	"tppsim/internal/tier"
	"tppsim/internal/tracker"
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

	// nodeCXL caches per-node "is CXL" so the per-access and per-scan
	// checks are a slice index instead of a topology walk; nodeTop caches
	// "is on the CPU tier" (tier 0), the promotability cut-off — on
	// multi-hop machines a page anywhere below the CPU tier is a
	// promotion candidate toward the next tier up.
	nodeCXL []bool
	nodeTop []bool

	// VA-order scan cursor (the kernel walks mm->mmap sequentially and
	// wraps).
	cursorRegion int
	cursorOffset pagetable.VPN
	sinceScan    uint64

	// framePages is the sampling stride, the page table's frame size:
	// 1 normally, mem.HugeFramePages in huge-page mode, where one
	// poisoned PMD entry covers a whole 2 MB frame and the next touch
	// anywhere in it raises the hint fault.
	framePages uint64
}

// New wires a balancer over the machine. An enabled balancer becomes the
// store's move observer.
func New(cfg Config, store *mem.Store, topo *tier.Topology, vecs []*lru.Vec,
	stat *vmstat.NodeStats, engine *migrate.Engine, as *pagetable.AddressSpace) *Balancer {
	cxl := make([]bool, topo.NumNodes())
	top := make([]bool, topo.NumNodes())
	for i := range cxl {
		cxl[i] = topo.Node(mem.NodeID(i)).Kind == mem.KindCXL
		top[i] = topo.TierOf(mem.NodeID(i)) == 0
	}
	b := &Balancer{cfg: cfg.withDefaults(), store: store, topo: topo, vecs: vecs, stat: stat, engine: engine, as: as,
		nodeCXL: cxl, nodeTop: top, framePages: uint64(1) << as.FrameShift()}
	if b.cfg.Enabled {
		store.SetMoveObserver(b.moved)
	}
	return b
}

// sampled reports whether the scan samples pages on node.
func (b *Balancer) sampled(node mem.NodeID) bool { return !b.cfg.CXLOnly || b.nodeCXL[node] }

// moved is the store's move observer: a page moved onto a sampled node
// may be a scan candidate. (A newborn page needs no report: mapping it
// sets its slot's mark.)
func (b *Balancer) moved(pfn mem.PFN, node mem.NodeID) {
	if b.sampled(node) {
		b.as.MarkPFN(pfn)
	}
}

// unhint clears the PGHinted of pg, mapped at v, as a hint fault
// restoring its PTE does, which makes the page a scan candidate again.
// The fault knows its address, so the mark is set by VPN, sparing the
// reverse-map read MarkPFN would make.
func (b *Balancer) unhint(v pagetable.VPN, pg *mem.Page) {
	pg.Flags = pg.Flags.Clear(mem.PGHinted)
	if b.sampled(pg.Node) {
		b.as.MarkVPN(v)
	}
}

// CheckCandidates verifies the scan marks' promise over every mapped
// slot: a page whose slot's mark is clear must be PGHinted or off every
// sampled node. A disabled balancer never scans and always passes.
func (b *Balancer) CheckCandidates() error {
	if !b.cfg.Enabled {
		return nil
	}
	shift := b.as.FrameShift()
	var buf [64]mem.PFN
	for i := 0; i < b.as.NumRegions(); i++ {
		marks := b.as.ScanMarks(i)
		for w, word := range marks {
			n := b.as.TranslateRun(i, pagetable.VPN(uint64(w)*64<<shift), b.framePages, buf[:])
			for k, pfn := range buf[:n] {
				if pfn == mem.NilPFN || word&(1<<k) != 0 {
					continue
				}
				pg := b.store.Page(pfn)
				if !pg.Flags.Has(mem.PGHinted) && b.sampled(pg.Node) {
					v := b.as.RegionAt(i).Start + pagetable.VPN((uint64(w)*64+uint64(k))<<shift)
					return fmt.Errorf("numab: VPN %d -> PFN %d on sampled node %d is unhinted but its scan mark is clear", v, pfn, pg.Node)
				}
			}
		}
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

// scanRun is the most frame slots the scan translates per TranslateRun:
// four mark words, 1 KB of PFNs, small enough to live on the stack.
const scanRun = 256

// scan walks the address space in VA order from the cursor, poisoning up
// to ScanSizePages in-scope mapped pages (setting PGHinted, the simulator's
// PTE present-bit clearing).
//
// The walk reads the region's scan marks a word of 64 frame slots at a
// time. A clear mark promises the per-page checks would skip the slot,
// so a zero word is passed over without translating it; a nonzero word's
// marked span is translated with TranslateRun, only its set bits are
// visited, and the marks visited are cleared (every page the walk reads
// ends up poisoned or is out of scope). The scan changes no translation,
// so one run serves every word it covers. Both bounds are applied per
// slot, as in a Translate-per-VPN walk: the visited bound clamps the
// slots admitted, and the walk stops right after the page that reaches
// ScanSizePages. So it poisons, charges and leaves the cursor exactly
// as that walk would.
func (b *Balancer) scan() float64 {
	const perPageNs = 150 // PTE walk + unmap cost per sampled page
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
	// Bound the walk to one full pass over the address space per scan.
	// In huge-page mode the cursor strides one frame per step: poisoning
	// a PMD-mapped THP is one PTE-level operation covering the whole
	// frame, so ScanSizePages (in base pages) covers 512x the VA per
	// poison and the hint-fault sampling runs at huge granularity.
	fp, shift := b.framePages, b.as.FrameShift()
	limit := b.cfg.ScanSizePages
	total := int(b.as.TotalPages())
	spent := 0.0
	store, nodeCXL, cxlOnly := b.store, b.nodeCXL, b.cfg.CXLOnly
	var buf [scanRun]mem.PFN
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
		var bufLo, bufHi uint64 // buf holds slots [bufLo, bufHi)
		s := first
		for s < end && marked < limit {
			w := s / 64
			base := w * 64
			word := marks[w] &^ (1<<(s-base) - 1)
			if w == lastW {
				word &= lastMask
			}
			s = min(base+64, end)
			if word == 0 {
				continue
			}
			if lo := base + uint64(bits.TrailingZeros64(word)); lo >= bufHi {
				// Translate the word's marked span in one TranslateRun,
				// continuing into the next words (up to scanRun slots)
				// while the marks run unbroken across a word boundary,
				// so densely marked ranges take a few long runs and
				// sparse ones never translate long unmarked gaps.
				hi := base + uint64(64-bits.LeadingZeros64(word))
				for v := w + 1; v <= lastW && v*64+64 <= lo+scanRun && marks[v-1]>>63 != 0 && marks[v]&1 != 0; v++ {
					next := marks[v]
					if v == lastW {
						next &= lastMask
					}
					hi = v*64 + uint64(64-bits.LeadingZeros64(next))
				}
				b.as.TranslateRun(b.cursorRegion, pagetable.VPN(lo<<shift), fp, buf[:hi-lo])
				bufLo, bufHi = lo, hi
			}
			rest := word
			for rest != 0 {
				k := uint64(bits.TrailingZeros64(rest))
				rest &= rest - 1
				pfn := buf[base+k-bufLo]
				if pfn == mem.NilPFN {
					continue // stale mark: unmapped since it was set
				}
				pg := store.Page(pfn)
				if cxlOnly && !nodeCXL[pg.Node] {
					continue
				}
				if pg.Flags.Has(mem.PGHinted) {
					continue
				}
				pg.Flags = pg.Flags.Set(mem.PGHinted)
				b.stat.Add(pg.Node, vmstat.NumaPagesScanned, fp)
				marked += int(fp)
				spent += perPageNs
				if marked >= limit {
					s = base + k + 1
					break
				}
			}
			marks[w] &^= word &^ rest // clear the marks just visited
		}
		visited += int(s-first) * int(fp)
		b.cursorOffset = pagetable.VPN(s << shift)
	}
	return spent
}

// HintTracker is the balancer seen as one tracker among several
// (tracker.Tracker): hint-fault sampling is just another sampled
// access-tracking mechanism, with the scan as its Tick and the hint
// faults themselves as its observations. The view is an adapter over
// the existing behavior — driving the balancer through it performs
// exactly the calls the simulator always made, so numab-driven runs
// stay bit-identical. The balancer's signal feeds promotions directly
// rather than a heatmap, so the view ignores the fold target.
type HintTracker struct {
	b *Balancer
}

var _ tracker.Tracker = (*HintTracker)(nil)

// Tracker returns the balancer's tracker.Tracker view.
func (b *Balancer) Tracker() *HintTracker { return &HintTracker{b: b} }

// Name returns the tracker kind.
func (t *HintTracker) Name() string { return "numab" }

// Start is a no-op: the balancer is already bound to its machine.
func (t *HintTracker) Start(tracker.Env) error { return nil }

// Stop is a no-op.
func (t *HintTracker) Stop() {}

// OnAccess observes one access, discarding the promotion outcome (the
// simulator's hot path calls Balancer.OnAccess directly when it needs
// the charged latency).
func (t *HintTracker) OnAccess(pfn mem.PFN, pg *mem.Page) {
	v, _ := t.b.as.VPNOf(pfn)
	t.b.OnAccess(v, pfn, pg)
}

// Tick advances the scan clock; a scan that consumed CPU counts as a
// fold. Hint-fault counts reach the stats plane, not the heatmap.
func (t *HintTracker) Tick(tick uint64, hm *tracker.Heatmap) bool {
	return t.b.Tick() != 0
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
// second store lookup). All simulated CPUs live on local nodes, so any
// access to a CXL-resident page is a remote access.
func (b *Balancer) OnAccess(v pagetable.VPN, pfn mem.PFN, pg *mem.Page) AccessOutcome {
	if !b.cfg.Enabled {
		return AccessOutcome{}
	}
	if !pg.Flags.Has(mem.PGHinted) {
		return AccessOutcome{}
	}
	b.unhint(v, pg)
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
