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
// It reads the page table a run of up to 256 translations at a time
// (pagetable.AddressSpace.TranslateRun) rather than one Translate per
// VPN, and it tests a PFN-indexed candidate bitset before it reads a
// page: a clear bit promises the page is already poisoned or sits on a
// node the scan does not sample. Only a page's birth or move onto a
// sampled node (reported by the store's placement observer) and a hint
// fault set a bit, and the scan clears the bits of the pages it reads,
// so a warm pass reads the page store only for pages that changed
// since the last pass. On a 64K-page table a settled pass costs about
// a fifth of a pass that reads every page; what remains is the page
// table read and one bit test per VPN. The walk is pinned against the
// per-VPN walk by a randomized equivalence test, and the bitset's
// promise by a per-tick invariant check on whole machines.
package numab

import (
	"fmt"

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

	// framePages is the sampling stride: 1 normally,
	// mem.HugeFramePages in huge-page mode, where one poisoned PMD entry
	// covers a whole 2 MB frame and the next touch anywhere in it raises
	// the hint fault.
	framePages uint64

	// cand is a PFN-indexed bitset of scan candidates. A clear bit, or a
	// PFN past its end, promises the page is not one: it is already
	// PGHinted, or it sits on a node the scan does not sample. Bits are
	// set only where a candidate can appear (the store placing a page on
	// a sampled node, a hint fault clearing PGHinted) and cleared only by
	// the scan, so a warm scan skips settled pages without reading the
	// page store.
	cand []uint64
}

// New wires a balancer over the machine. An enabled balancer becomes the
// store's placement observer, with every PFN the store already holds
// marked a candidate.
func New(cfg Config, store *mem.Store, topo *tier.Topology, vecs []*lru.Vec,
	stat *vmstat.NodeStats, engine *migrate.Engine, as *pagetable.AddressSpace) *Balancer {
	cxl := make([]bool, topo.NumNodes())
	top := make([]bool, topo.NumNodes())
	for i := range cxl {
		cxl[i] = topo.Node(mem.NodeID(i)).Kind == mem.KindCXL
		top[i] = topo.TierOf(mem.NodeID(i)) == 0
	}
	b := &Balancer{cfg: cfg.withDefaults(), store: store, topo: topo, vecs: vecs, stat: stat, engine: engine, as: as, nodeCXL: cxl, nodeTop: top, framePages: 1}
	if b.cfg.Enabled {
		b.cand = make([]uint64, (store.Cap()+63)/64)
		for pfn := 0; pfn < store.Len(); pfn++ {
			b.cand[pfn/64] |= 1 << (pfn % 64)
		}
		store.SetPlacementObserver(b.placed)
	}
	return b
}

// placed is the store's placement observer: a page born on, or moved
// to, a sampled node may be a scan candidate.
func (b *Balancer) placed(pfn mem.PFN, node mem.NodeID) {
	if b.cfg.CXLOnly && !b.nodeCXL[node] {
		return
	}
	w := int(pfn / 64)
	if w >= len(b.cand) {
		b.cand = append(b.cand, make([]uint64, w+1-len(b.cand))...)
	}
	b.cand[w] |= 1 << (pfn % 64)
}

// unhint clears pfn's PGHinted, as a hint fault restoring its PTE does,
// which makes the page a scan candidate again.
func (b *Balancer) unhint(pfn mem.PFN, pg *mem.Page) {
	pg.Flags = pg.Flags.Clear(mem.PGHinted)
	b.placed(pfn, pg.Node)
}

// CheckCandidates verifies the candidate bitset's promise over every
// mapped page: a page whose bit is clear must be PGHinted or off every
// sampled node. A disabled balancer keeps no bitset and always passes.
func (b *Balancer) CheckCandidates() error {
	if !b.cfg.Enabled {
		return nil
	}
	var err error
	b.as.ForEachMapped(func(v pagetable.VPN, pfn mem.PFN) {
		if w := int(pfn / 64); err != nil || w < len(b.cand) && b.cand[w]&(1<<(pfn%64)) != 0 {
			return
		}
		pg := b.store.Page(pfn)
		if !pg.Flags.Has(mem.PGHinted) && (!b.cfg.CXLOnly || b.nodeCXL[pg.Node]) {
			err = fmt.Errorf("numab: VPN %d -> PFN %d on sampled node %d is unhinted but not a scan candidate", v, pfn, pg.Node)
		}
	})
	return err
}

// Config returns the balancer configuration.
func (b *Balancer) Config() Config { return b.cfg }

// SetFramePages sets the base pages each sampled PFN covers (a machine
// property, set once by the simulator before any scan runs).
func (b *Balancer) SetFramePages(fp uint64) { b.framePages = fp }

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

// scanRun is the page-table run length the scan reads per step: 1 KB of
// PFNs, small enough to live on the stack.
const scanRun = 256

// scan walks the address space in VA order from the cursor, poisoning up
// to ScanSizePages in-scope mapped pages (setting PGHinted, the simulator's
// PTE present-bit clearing).
//
// The walk reads the page table a run at a time (TranslateRun) and
// applies the per-page logic to the run in order, checking both bounds
// before every page and advancing the cursor only past the pages it
// consumed, so it poisons, charges and leaves the cursor exactly as a
// Translate-per-VPN walk would. A page whose candidate bit is clear would
// fail the per-page checks, so the walk skips it without reading the
// page store. Every page the walk reads ends up poisoned or is out of
// scope, so the walk clears its bit.
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
	fp := b.framePages
	limit := b.cfg.ScanSizePages
	total := int(b.as.TotalPages())
	spent := 0.0
	// Loop-invariant state in locals: the bitset store below would
	// otherwise force a reload of each field on every page.
	store, cand, nodeCXL, cxlOnly := b.store, b.cand, b.nodeCXL, b.cfg.CXLOnly
	var buf [scanRun]mem.PFN
	for marked < limit && visited < total {
		n := b.as.TranslateRun(b.cursorRegion, b.cursorOffset, fp, buf[:])
		if n == 0 {
			b.cursorRegion = (b.cursorRegion + 1) % numRegions
			b.cursorOffset = 0
			continue
		}
		// The visited bound admits the run's first end pages, so only the
		// marked bound needs checking per page.
		end := min(n, (total-visited+int(fp)-1)/int(fp))
		k := 0
		for ; k < end && marked < limit; k++ {
			// A PFN past the bitset was never placed on a sampled node,
			// and an unmapped slot's NilPFN is past every bitset.
			pfn := buf[k]
			w, bit := uint(pfn/64), uint64(1)<<(pfn%64)
			if w >= uint(len(cand)) || cand[w]&bit == 0 {
				continue
			}
			cand[w] &^= bit
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
		}
		visited += k * int(fp)
		b.cursorOffset += pagetable.VPN(uint64(k) * fp)
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
func (t *HintTracker) OnAccess(pfn mem.PFN, pg *mem.Page) { t.b.OnAccess(pfn, pg) }

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

// OnAccess processes one CPU access to pfn; pg must be pfn's page (the
// caller already has it, so the hot path avoids a second store lookup).
// All simulated CPUs live on local nodes, so any access to a CXL-resident
// page is a remote access.
func (b *Balancer) OnAccess(pfn mem.PFN, pg *mem.Page) AccessOutcome {
	if !b.cfg.Enabled {
		return AccessOutcome{}
	}
	if !pg.Flags.Has(mem.PGHinted) {
		return AccessOutcome{}
	}
	b.unhint(pfn, pg)
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
